package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func tiny() *Cache {
	// 4 sets x 2 ways x 64B lines = 512 bytes.
	return New(Config{Name: "tiny", Bytes: 512, Ways: 2})
}

func TestHitAfterMiss(t *testing.T) {
	c := tiny()
	if hit, _ := c.Access(0x1000, false); hit {
		t.Fatal("cold access should miss")
	}
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Fatal("second access should hit")
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSameLineDifferentBytes(t *testing.T) {
	c := tiny()
	c.Access(0x1000, false)
	if hit, _ := c.Access(0x103F, true); !hit {
		t.Error("access within the same 64B line should hit")
	}
	if hit, _ := c.Access(0x1040, false); hit {
		t.Error("next line should miss")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := tiny() // 4 sets: line -> set = (addr>>6) % 4
	// Three addresses mapping to set 0: line addresses 0, 4, 8.
	a0, a1, a2 := uint64(0*64), uint64(4*64), uint64(8*64)
	c.Access(a0, true)  // set0: [a0*]
	c.Access(a1, false) // set0: [a1, a0*]
	_, v := c.Access(a2, false)
	if !v.Valid || !v.Dirty || v.LineAddr != a0 {
		t.Errorf("expected dirty eviction of %#x, got %+v", a0, v)
	}
	if c.Contains(a0) {
		t.Error("evicted line still resident")
	}
	if !c.Contains(a1) || !c.Contains(a2) {
		t.Error("resident lines missing")
	}
}

func TestCleanEvictionNotDirty(t *testing.T) {
	c := tiny()
	a0, a1, a2 := uint64(0*64), uint64(4*64), uint64(8*64)
	c.Access(a0, false)
	c.Access(a1, false)
	_, v := c.Access(a2, false)
	if !v.Valid || v.Dirty {
		t.Errorf("expected clean eviction, got %+v", v)
	}
	if got := c.Stats().DirtyEvicts; got != 0 {
		t.Errorf("DirtyEvicts = %d, want 0", got)
	}
}

func TestLRUOrder(t *testing.T) {
	c := tiny()
	a0, a1, a2 := uint64(0*64), uint64(4*64), uint64(8*64)
	c.Access(a0, false)
	c.Access(a1, false)
	c.Access(a0, false) // refresh a0; a1 becomes LRU
	_, v := c.Access(a2, false)
	if v.LineAddr != a1 {
		t.Errorf("LRU victim = %#x, want %#x", v.LineAddr, a1)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := tiny()
	a0, a1, a2 := uint64(0*64), uint64(4*64), uint64(8*64)
	c.Access(a0, false) // clean
	c.Access(a0, true)  // now dirty via write hit
	c.Access(a1, false)
	c.Access(a0, false) // keep a0 MRU
	_, v := c.Access(a2, false)
	if v.LineAddr != a1 || v.Dirty {
		t.Errorf("victim = %+v, want clean %#x", v, a1)
	}
	// Evict a0 next; it must come out dirty.
	c.Access(a2, false)
	_, v = c.Access(a1, false)
	if v.LineAddr != a0 || !v.Dirty {
		t.Errorf("victim = %+v, want dirty %#x", v, a0)
	}
}

func TestFlush(t *testing.T) {
	c := tiny()
	c.Access(0, true)
	c.Access(4*64, false)
	dirty := c.Flush()
	if len(dirty) != 1 || dirty[0] != 0 {
		t.Errorf("flush dirty = %v, want [0]", dirty)
	}
	if c.Contains(0) || c.Contains(4*64) {
		t.Error("flush left lines resident")
	}
}

func TestWorkingSetFitsNoEvictions(t *testing.T) {
	// A working set equal to capacity, touched repeatedly, must stop
	// missing after the first pass — the "L3 absorbs the nursery"
	// effect in miniature.
	c := New(Config{Name: "l3", Bytes: 1 << 16, Ways: 16})
	lines := (1 << 16) / 64
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*64), true)
		}
	}
	s := c.Stats()
	if s.Evictions != 0 {
		t.Errorf("fitting working set caused %d evictions", s.Evictions)
	}
	wantHits := uint64(3 * lines)
	if s.Hits != wantHits {
		t.Errorf("hits = %d, want %d", s.Hits, wantHits)
	}
}

func TestOverflowingWorkingSetEvicts(t *testing.T) {
	c := New(Config{Name: "l3", Bytes: 1 << 14, Ways: 4})
	lines := 2 * (1 << 14) / 64 // 2x capacity
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*64), true)
		}
	}
	if c.Stats().DirtyEvicts == 0 {
		t.Error("2x working set should force dirty evictions")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero ways")
		}
	}()
	New(Config{Name: "bad", Bytes: 512, Ways: 0})
}

// Property: the number of resident lines never exceeds capacity, and
// an access to an address always leaves it resident.
func TestResidencyProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := New(Config{Name: "p", Bytes: 2048, Ways: 4})
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
			if !c.Contains(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: hits+misses == accesses and evictions <= misses.
func TestStatsConsistencyProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(Config{Name: "p", Bytes: 1024, Ways: 2})
		for _, a := range addrs {
			c.Access(uint64(a), a%3 == 0)
		}
		s := c.Stats()
		misses := s.Accesses - s.Hits
		return s.Evictions <= misses && s.DirtyEvicts <= s.Evictions
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refCache is the reference model Cache must match access for access:
// full line addresses per way, a separate dirty array, and MRU→LRU
// order kept by copying the set on every access.
type refCache struct {
	sets  uint64
	ways  int
	lines []uint64 // lineAddr+1 per (set, way); 0 means invalid
	dirty []bool
	stats Stats
}

func newRefCache(cfg Config) *refCache {
	sets := cfg.Bytes / 64 / cfg.Ways
	return &refCache{
		sets:  uint64(sets),
		ways:  cfg.Ways,
		lines: make([]uint64, sets*cfg.Ways),
		dirty: make([]bool, sets*cfg.Ways),
	}
}

func (c *refCache) Access(addr uint64, write bool) (hit bool, victim Victim) {
	line := addr >> 6
	base := int(line%c.sets) * c.ways
	enc := line + 1
	c.stats.Accesses++
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w] == enc {
			d := c.dirty[base+w] || write
			copy(c.lines[base+1:base+w+1], c.lines[base:base+w])
			copy(c.dirty[base+1:base+w+1], c.dirty[base:base+w])
			c.lines[base] = enc
			c.dirty[base] = d
			c.stats.Hits++
			return true, Victim{}
		}
	}
	last := base + c.ways - 1
	if c.lines[last] != 0 {
		victim = Victim{LineAddr: (c.lines[last] - 1) << 6, Dirty: c.dirty[last], Valid: true}
		c.stats.Evictions++
		if victim.Dirty {
			c.stats.DirtyEvicts++
		}
	}
	copy(c.lines[base+1:base+c.ways], c.lines[base:last])
	copy(c.dirty[base+1:base+c.ways], c.dirty[base:last])
	c.lines[base] = enc
	c.dirty[base] = write
	return false, victim
}

func (c *refCache) Flush() []uint64 {
	var out []uint64
	for i, enc := range c.lines {
		if enc != 0 && c.dirty[i] {
			out = append(out, (enc-1)<<6)
		}
		c.lines[i] = 0
		c.dirty[i] = false
	}
	return out
}

// TestMatchesReferenceModel drives Cache and refCache with the same
// seeded read/write streams and requires identical hits, victims,
// statistics and flush output on power-of-two, non-power-of-two and
// fully associative geometries.
func TestMatchesReferenceModel(t *testing.T) {
	const platform = 2 * 66 << 30 // the platform's two 66 GB nodes
	geoms := []struct {
		cfg  Config
		span uint64 // addresses lie in [0, span)
	}{
		{Config{Name: "L1 64x8", Bytes: 32 << 10, Ways: 8}, platform},
		{Config{Name: "L3 16384x20", Bytes: 20 << 20, Ways: 20}, platform},
		{Config{Name: "L3 3MB 24576x2", Bytes: 3 << 20, Ways: 2}, platform},
		// One set: the tag is the whole line number, so the span must
		// stay under 2^31 lines.
		{Config{Name: "fully associative", Bytes: 32 * 64, Ways: 32}, 64 << 30},
	}
	for _, g := range geoms {
		cfg, span := g.cfg, g.span
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				got, want := New(cfg), newRefCache(cfg)
				rng := rand.New(rand.NewSource(seed))
				// A few regions anywhere in the span, each half the
				// cache: reuse within a region hits, and the regions
				// together overflow it. Line addresses near the top
				// of the span exercise the widest tags.
				region := uint64(cfg.Bytes / 2)
				bases := []uint64{0, span - region}
				for len(bases) < 6 {
					bases = append(bases, uint64(rng.Int63n(int64(span-region)))&^63)
				}
				n := 4 * cfg.Bytes / 64
				for round := 0; round < 2; round++ {
					for i := 0; i < n; i++ {
						addr := bases[rng.Intn(len(bases))] + uint64(rng.Int63n(int64(region)))
						write := rng.Intn(3) == 0
						h1, v1 := got.Access(addr, write)
						h2, v2 := want.Access(addr, write)
						if h1 != h2 || v1 != v2 {
							t.Fatalf("access %d (%#x, write=%v): got (%v, %+v), want (%v, %+v)", i, addr, write, h1, v1, h2, v2)
						}
					}
					if got.Stats() != want.stats {
						t.Fatalf("stats = %+v, want %+v", got.Stats(), want.stats)
					}
					if f1, f2 := got.Flush(), want.Flush(); !reflect.DeepEqual(f1, f2) {
						t.Fatalf("flush returned %d lines, want %d in the same order", len(f1), len(f2))
					}
				}
				if want.stats.Hits == 0 || want.stats.DirtyEvicts == 0 {
					t.Errorf("stream too weak: %+v", want.stats)
				}
			})
		}
	}
}

// TestTagOverflowPanics: an address whose tag cannot fit a 32-bit way
// word must not alias a resident line.
func TestTagOverflowPanics(t *testing.T) {
	// One set, so the tag is the whole line number.
	c := New(Config{Name: "fa", Bytes: 16 * 64, Ways: 16})
	c.Access(maxTag<<6, true) // the widest tag that fits
	defer func() {
		if recover() == nil {
			t.Error("Access past the 32-bit way word should panic")
		}
	}()
	c.Access((maxTag+1)<<6, true)
}
