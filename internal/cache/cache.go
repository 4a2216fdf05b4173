// Package cache implements the set-associative, write-back,
// write-allocate caches of the emulation platform's processors.
//
// The write-back policy is what makes the platform interesting: a store
// only reaches a memory controller when a dirty line is evicted, so the
// number of PCM writes observed by the paper is the number of dirty
// evictions whose physical page lives on the remote socket. The paper's
// central observation — that a 20 MB L3 absorbs most writes to a 4 MB
// nursery, shrinking KG-N's benefit from 81% (4 MB L3) to 4–8% — falls
// out of this model, as does the super-linear growth of PCM writes when
// multiprogrammed instances interfere in the shared L3.
package cache

import (
	"fmt"
	"math/bits"
)

// Victim describes a line displaced by an allocation.
type Victim struct {
	// LineAddr is the 64-byte-aligned address of the displaced line.
	LineAddr uint64
	// Dirty reports whether the line must be written back.
	Dirty bool
	// Valid reports whether a line was displaced at all.
	Valid bool
}

// Config describes one cache.
type Config struct {
	Name     string
	Bytes    int // total capacity
	Ways     int // associativity
	LineSize int // bytes per line; 64 everywhere in this platform
}

// maxTag is the largest tag a way word holds: (maxTag+1)<<1 | 1 is
// the largest uint32. Access panics on an address with a wider tag
// rather than let it alias a resident line; with 64-byte lines and the
// platform's 64-set L1, that is an address near 8 TiB.
const maxTag = 1<<31 - 2

// Stats are cumulative access statistics for one cache.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Evictions   uint64
	DirtyEvicts uint64
}

// Cache is a single set-associative write-back cache level. Each way is
// one packed word, (tag+1)<<1 | dirty, with 0 meaning invalid; the
// victim address is rebuilt from tag and set. Ways within a set are
// kept in exact MRU→LRU order, and invalid ways always form the set's
// tail. Not safe for concurrent use.
type Cache struct {
	cfg   Config
	sets  uint64
	ways  int
	shift uint // log2 of the line size
	// pow2 selects the mask set index: set = line&mask, tag =
	// line>>setBits. Otherwise set = line%sets, tag = line/sets.
	pow2    bool
	setBits uint
	mask    uint64
	words   []uint32
	stats   Stats
}

// New returns a cache for the configuration. It panics on a geometry
// that cannot form whole sets, since that is a programming error in
// the platform description, not a runtime condition.
func New(cfg Config) *Cache {
	if cfg.LineSize == 0 {
		cfg.LineSize = 64
	}
	if cfg.Ways <= 0 || cfg.Bytes <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	linesTotal := cfg.Bytes / cfg.LineSize
	if linesTotal%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", cfg.Name, linesTotal, cfg.Ways))
	}
	sets := linesTotal / cfg.Ways
	if sets == 0 {
		panic(fmt.Sprintf("cache %s: zero sets", cfg.Name))
	}
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	c := &Cache{
		cfg:   cfg,
		sets:  uint64(sets),
		ways:  cfg.Ways,
		shift: shift,
		pow2:  sets&(sets-1) == 0,
		words: make([]uint32, sets*cfg.Ways),
	}
	if c.pow2 {
		c.setBits = uint(bits.TrailingZeros64(c.sets))
		c.mask = c.sets - 1
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the cumulative statistics.
func (c *Cache) Stats() Stats { return c.stats }

// LineAddr converts a byte address to its 64-byte line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.shift << c.shift }

// locate splits a line number into its set index and tag.
func (c *Cache) locate(line uint64) (set, tag uint64) {
	if c.pow2 {
		return line & c.mask, line >> c.setBits
	}
	tag = line / c.sets
	return line - tag*c.sets, tag
}

// tagOverflow panics for an address whose tag does not fit a way word.
// It is kept out of line, off Access's hot path.
//
//go:noinline
func (c *Cache) tagOverflow(addr uint64) {
	panic(fmt.Sprintf("cache %s: address %#x has a tag past the 32-bit way word", c.cfg.Name, addr))
}

// lineAddr rebuilds the address of the line a valid way word holds in
// the given set.
func (c *Cache) lineAddr(word uint32, set uint64) uint64 {
	tag := uint64(word>>1) - 1
	var line uint64
	if c.pow2 {
		line = tag<<c.setBits | set
	} else {
		line = tag*c.sets + set
	}
	return line << c.shift
}

// Access performs one read or write of the line containing addr.
// On a miss the line is allocated (write-allocate) and the displaced
// line, if any, is returned so the caller can cascade the writeback.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim Victim) {
	set, tag := c.locate(addr >> c.shift)
	if tag > maxTag {
		c.tagOverflow(addr)
	}
	base := int(set) * c.ways
	ways, want := c.words[base:base+c.ways], uint32(tag+1)<<1
	var dirty uint32
	if write {
		dirty = 1
	}
	c.stats.Accesses++

	// One pass: shift each scanned way down by one, so when the line
	// is found (or the scan ends) the MRU slot is free and the order
	// of the rest is exact.
	prev := ways[0]
	if prev&^1 == want {
		ways[0] = prev | dirty
		c.stats.Hits++
		return true, Victim{}
	}
	for w := 1; w < len(ways); w++ {
		cur := ways[w]
		ways[w] = prev
		if cur&^1 == want {
			ways[0] = cur | dirty
			c.stats.Hits++
			return true, Victim{}
		}
		if cur == 0 {
			// Invalid ways form the tail: the set had a free way.
			ways[0] = want | dirty
			return false, Victim{}
		}
		prev = cur
	}

	// Miss: prev is the LRU way, already shifted out.
	ways[0] = want | dirty
	if prev == 0 {
		return false, Victim{}
	}
	c.stats.Evictions++
	victim = Victim{LineAddr: c.lineAddr(prev, set), Dirty: prev&1 != 0, Valid: true}
	if victim.Dirty {
		c.stats.DirtyEvicts++
	}
	return false, victim
}

// Contains reports whether the line holding addr is currently resident.
// It does not perturb recency and is intended for tests and assertions.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.locate(addr >> c.shift)
	if tag > maxTag {
		c.tagOverflow(addr)
	}
	base, want := int(set)*c.ways, uint32(tag+1)<<1
	for _, w := range c.words[base : base+c.ways] {
		if w&^1 == want {
			return true
		}
	}
	return false
}

// Flush invalidates the whole cache and returns the dirty lines, set
// by set and MRU→LRU within a set, so the caller can account for their
// writebacks.
func (c *Cache) Flush() []uint64 {
	var dirtyLines []uint64
	for i, w := range c.words {
		if w&1 != 0 {
			dirtyLines = append(dirtyLines, c.lineAddr(w, uint64(i/c.ways)))
		}
		c.words[i] = 0
	}
	return dirtyLines
}

// ResetStats zeroes the statistics counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }
