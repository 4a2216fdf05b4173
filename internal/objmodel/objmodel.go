// Package objmodel defines the managed object model: object records
// with headers, reference slots, and write-history bits, plus the
// object table that maps stable object identifiers to records.
//
// Objects live at virtual addresses in the managed heap; the record is
// the runtime's bookkeeping view (type information block, GC state),
// mirroring how a JVM sees objects through headers and reference maps.
// Identifiers stay stable across copying collections — the record's
// Addr field is updated when an object moves, exactly as a real
// reference is forwarded.
package objmodel

import "fmt"

// HeaderBytes is the object header size: a status word and a type
// (TIB) word, as in the 32-bit Jikes RVM object model.
const HeaderBytes = 8

// RefBytes is the size of one reference slot (32-bit addressing).
const RefBytes = 4

// ObjID identifies an object in an object table. 0 is the nil
// reference.
type ObjID uint32

// Nil is the null object reference.
const Nil ObjID = 0

// SpaceID identifies a heap space. The set matches the paper's Table I
// plus the boot space.
type SpaceID uint8

const (
	SpaceNone SpaceID = iota
	SpaceBoot
	SpaceNursery
	SpaceObserver
	SpaceMatureDRAM
	SpaceMaturePCM
	SpaceLargeDRAM
	SpaceLargePCM
	SpaceMetaDRAM
	SpaceMetaPCM
	NumSpaces
)

// String returns the space's conventional name.
func (s SpaceID) String() string {
	switch s {
	case SpaceNone:
		return "none"
	case SpaceBoot:
		return "boot"
	case SpaceNursery:
		return "nursery"
	case SpaceObserver:
		return "observer"
	case SpaceMatureDRAM:
		return "mature-dram"
	case SpaceMaturePCM:
		return "mature-pcm"
	case SpaceLargeDRAM:
		return "large-dram"
	case SpaceLargePCM:
		return "large-pcm"
	case SpaceMetaDRAM:
		return "meta-dram"
	case SpaceMetaPCM:
		return "meta-pcm"
	default:
		return fmt.Sprintf("space(%d)", uint8(s))
	}
}

// Flags hold per-object state bits.
type Flags uint8

const (
	// FlagWritten is set by the write barrier when the mutator writes
	// the object while it is being observed (KG-W monitoring, large
	// object write tracking).
	FlagWritten Flags = 1 << iota
	// FlagLarge marks objects allocated under the large-object
	// policy.
	FlagLarge
	// FlagPinned marks objects the collector must not move (boot
	// image objects).
	FlagPinned
)

// inlineRefs is the number of reference slots stored inline in the
// record; objects with more use the overflow slice. Most managed
// objects have a handful of reference fields, so this keeps the object
// table allocation-free for the common case.
const inlineRefs = 4

// Object is one managed object's record.
type Object struct {
	Addr  uint64 // current payload address (includes header)
	Size  uint32 // total size in bytes, header included
	Space SpaceID
	Flags Flags
	nref  uint16
	mark  uint32 // last mark epoch that reached this object
	refs  [inlineRefs]ObjID
	ext   []ObjID
}

// NumRefs reports the number of reference slots.
func (o *Object) NumRefs() int { return int(o.nref) }

// Ref returns the i'th reference slot.
func (o *Object) Ref(i int) ObjID {
	if i < inlineRefs {
		return o.refs[i]
	}
	return o.ext[i-inlineRefs]
}

// SetRef stores into the i'th reference slot.
func (o *Object) SetRef(i int, id ObjID) {
	if i < inlineRefs {
		o.refs[i] = id
		return
	}
	o.ext[i-inlineRefs] = id
}

// RefSlotAddr returns the virtual address of the i'th reference slot,
// used to charge the memory write of a pointer store.
func (o *Object) RefSlotAddr(i int) uint64 {
	return o.Addr + HeaderBytes + uint64(i)*RefBytes
}

// Marked reports whether the object was marked in the given epoch.
func (o *Object) Marked(epoch uint32) bool { return o.mark == epoch }

// SetMark records the mark epoch.
func (o *Object) SetMark(epoch uint32) { o.mark = epoch }

// chunkBits sizes the object table's chunks: 4,096 records each.
const (
	chunkBits = 12
	chunkLen  = 1 << chunkBits
)

// Table is an object table: records in fixed-size chunks that are
// never moved or regrown, with a free list of recycled slots. IDs are
// slot indices + 1 so that 0 stays nil, and a pointer returned by Get
// stays valid across later Allocs. Tables are not safe for concurrent
// use.
type Table struct {
	chunks []*[chunkLen]Object
	n      int // slots ever allocated
	free   []ObjID
	live   int
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// Alloc creates a record and returns its ID. The record starts with
// the given placement and nrefs empty reference slots.
func (t *Table) Alloc(addr uint64, size uint32, space SpaceID, nrefs int) ObjID {
	var id ObjID
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		if t.n == len(t.chunks)*chunkLen {
			t.chunks = append(t.chunks, new([chunkLen]Object))
		}
		t.n++
		id = ObjID(t.n)
	}
	o := t.slot(id)
	*o = Object{Addr: addr, Size: size, Space: space, nref: uint16(nrefs)}
	if nrefs > inlineRefs {
		o.ext = make([]ObjID, nrefs-inlineRefs)
	}
	t.live++
	return id
}

// slot returns the record of an in-range id.
func (t *Table) slot(id ObjID) *Object {
	i := int(id) - 1
	return &t.chunks[i>>chunkBits][i&(chunkLen-1)]
}

// Get returns the record for id. It panics on nil or out-of-range IDs:
// a bad ID is a runtime bug, the managed equivalent of a corrupted
// reference.
func (t *Table) Get(id ObjID) *Object {
	if id == Nil || int(id) > t.n {
		panic(fmt.Sprintf("objmodel: invalid object id %d", id))
	}
	return t.slot(id)
}

// Free releases the record for reuse.
func (t *Table) Free(id ObjID) {
	o := t.Get(id)
	*o = Object{}
	t.free = append(t.free, id)
	t.live--
}

// Live reports the number of live records.
func (t *Table) Live() int { return t.live }

// Cap reports the number of slots ever allocated, live or free (for
// diagnostics).
func (t *Table) Cap() int { return t.n }
