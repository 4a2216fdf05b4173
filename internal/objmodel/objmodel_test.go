package objmodel

import (
	"testing"
	"testing/quick"
)

func TestSpaceStrings(t *testing.T) {
	cases := map[SpaceID]string{
		SpaceBoot:       "boot",
		SpaceNursery:    "nursery",
		SpaceObserver:   "observer",
		SpaceMatureDRAM: "mature-dram",
		SpaceMaturePCM:  "mature-pcm",
		SpaceLargeDRAM:  "large-dram",
		SpaceLargePCM:   "large-pcm",
		SpaceMetaDRAM:   "meta-dram",
		SpaceMetaPCM:    "meta-pcm",
	}
	for id, want := range cases {
		if id.String() != want {
			t.Errorf("%d.String() = %q, want %q", id, id.String(), want)
		}
	}
}

func TestAllocGetFree(t *testing.T) {
	tb := NewTable()
	id := tb.Alloc(0x1000, 64, SpaceNursery, 2)
	if id == Nil {
		t.Fatal("Alloc returned nil id")
	}
	o := tb.Get(id)
	if o.Addr != 0x1000 || o.Size != 64 || o.Space != SpaceNursery || o.NumRefs() != 2 {
		t.Errorf("object = %+v", o)
	}
	if tb.Live() != 1 {
		t.Errorf("Live = %d, want 1", tb.Live())
	}
	tb.Free(id)
	if tb.Live() != 0 {
		t.Errorf("Live after free = %d, want 0", tb.Live())
	}
	// Slot reuse.
	id2 := tb.Alloc(0x2000, 32, SpaceMaturePCM, 0)
	if id2 != id {
		t.Errorf("expected slot reuse, got %d (was %d)", id2, id)
	}
}

func TestGetInvalidPanics(t *testing.T) {
	tb := NewTable()
	defer func() {
		if recover() == nil {
			t.Error("Get(Nil) should panic")
		}
	}()
	tb.Get(Nil)
}

func TestRefsInlineAndOverflow(t *testing.T) {
	tb := NewTable()
	id := tb.Alloc(0x1000, 256, SpaceNursery, 7) // 4 inline + 3 overflow
	o := tb.Get(id)
	for i := 0; i < 7; i++ {
		o.SetRef(i, ObjID(i+100))
	}
	for i := 0; i < 7; i++ {
		if o.Ref(i) != ObjID(i+100) {
			t.Errorf("Ref(%d) = %d, want %d", i, o.Ref(i), i+100)
		}
	}
}

func TestRefSlotAddr(t *testing.T) {
	tb := NewTable()
	id := tb.Alloc(0x1000, 64, SpaceNursery, 3)
	o := tb.Get(id)
	if got := o.RefSlotAddr(0); got != 0x1000+HeaderBytes {
		t.Errorf("slot 0 addr = %#x", got)
	}
	if got := o.RefSlotAddr(2); got != 0x1000+HeaderBytes+2*RefBytes {
		t.Errorf("slot 2 addr = %#x", got)
	}
}

func TestMarkEpochs(t *testing.T) {
	tb := NewTable()
	o := tb.Get(tb.Alloc(0x1000, 64, SpaceNursery, 0))
	if o.Marked(1) {
		t.Error("fresh object should be unmarked in epoch 1")
	}
	o.SetMark(1)
	if !o.Marked(1) {
		t.Error("object should be marked in epoch 1")
	}
	if o.Marked(2) {
		t.Error("epoch 2 should not see epoch-1 marks")
	}
}

func TestFlags(t *testing.T) {
	tb := NewTable()
	o := tb.Get(tb.Alloc(0x1000, 64, SpaceLargePCM, 0))
	o.Flags |= FlagLarge | FlagWritten
	if o.Flags&FlagLarge == 0 || o.Flags&FlagWritten == 0 {
		t.Error("flags not set")
	}
	o.Flags &^= FlagWritten
	if o.Flags&FlagWritten != 0 {
		t.Error("FlagWritten not cleared")
	}
	if o.Flags&FlagLarge == 0 {
		t.Error("FlagLarge lost while clearing FlagWritten")
	}
}

// Property: live count equals allocs minus frees, and freed slots are
// recycled before the table grows.
func TestTableAccountingProperty(t *testing.T) {
	f := func(ops []bool) bool {
		tb := NewTable()
		var ids []ObjID
		allocs, frees := 0, 0
		for _, alloc := range ops {
			if alloc || len(ids) == 0 {
				ids = append(ids, tb.Alloc(0x1000, 64, SpaceNursery, 1))
				allocs++
			} else {
				id := ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				tb.Free(id)
				frees++
			}
		}
		return tb.Live() == allocs-frees
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: reference slots hold exactly what was stored, for any slot
// count up to 16.
func TestRefsRoundtripProperty(t *testing.T) {
	f := func(n uint8, vals []uint32) bool {
		nrefs := int(n % 16)
		tb := NewTable()
		o := tb.Get(tb.Alloc(0x1000, 64, SpaceNursery, nrefs))
		want := make([]ObjID, nrefs)
		for i := 0; i < nrefs && i < len(vals); i++ {
			want[i] = ObjID(vals[i])
			o.SetRef(i, want[i])
		}
		for i := 0; i < nrefs; i++ {
			if o.Ref(i) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGetStableAcrossGrowth: a record pointer survives the table
// growing past several chunks, and IDs past the last allocated slot
// still panic even where the current chunk has room.
func TestGetStableAcrossGrowth(t *testing.T) {
	tb := NewTable()
	first := tb.Alloc(0x1000, 64, SpaceNursery, 0)
	o := tb.Get(first)
	var last ObjID
	for i := 0; i < 3*chunkLen; i++ {
		last = tb.Alloc(uint64(i)*64, 32, SpaceNursery, 1)
	}
	if int(last) != 3*chunkLen+1 || tb.Cap() != int(last) {
		t.Fatalf("last id %d, Cap %d; want dense ids up to %d", last, tb.Cap(), 3*chunkLen+1)
	}
	o.Addr = 0x2000
	if tb.Get(first) != o || tb.Get(first).Addr != 0x2000 {
		t.Error("record pointer moved when the table grew")
	}
	defer func() {
		if recover() == nil {
			t.Error("Get past the last allocated slot should panic")
		}
	}()
	tb.Get(last + 1)
}
