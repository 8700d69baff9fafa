// Package ucsim is a simple micro-architectural timing simulator — the
// "second system" of the paper's first use case: "building traces in one
// system, e.g. by using a DBT, and collecting statistics and profiling
// information for them on a second system, e.g. by replaying the traces on
// a cycle accurate simulator" (§1).
//
// The model is deliberately classical: set-associative LRU instruction and
// data caches, a bimodal branch predictor, and a single-issue in-order
// core with fixed operation latencies. It is not cycle-accurate to any
// real machine — no simulator of this size is — but it produces the
// per-TBB cycle, miss and misprediction statistics that the TEA mapping
// attributes to trace instances.
package ucsim

import "fmt"

// CacheConfig sizes one cache. All quantities are in the ISA's units:
// lines hold LineWords 8-byte words for the data cache and LineBytes code
// bytes for the instruction cache.
type CacheConfig struct {
	// Sets and Ways define the geometry; both must be powers of two
	// (Ways may be any positive count).
	Sets int
	Ways int
	// LineShift is log2 of the line size (in words for D-cache, bytes for
	// I-cache).
	LineShift uint
	// MissPenalty is the extra cycles of a miss.
	MissPenalty uint64
}

// Cache is a set-associative LRU cache model.
type Cache struct {
	cfg  CacheConfig
	tags [][]uint64 // [set][way], tag+1 (0 = invalid)
	lru  [][]uint64 // [set][way], last-touch stamp
	tick uint64     // accesses so far
}

// NewCache builds a cache; it panics on a non-power-of-two set count
// (configuration is programmer input, not runtime data).
func NewCache(cfg CacheConfig) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("ucsim: sets %d not a power of two", cfg.Sets))
	}
	if cfg.Ways <= 0 {
		panic("ucsim: ways must be positive")
	}
	c := &Cache{cfg: cfg}
	c.tags = make([][]uint64, cfg.Sets)
	c.lru = make([][]uint64, cfg.Sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, cfg.Ways)
		c.lru[i] = make([]uint64, cfg.Ways)
	}
	return c
}

// Access touches the address and returns the extra miss cycles (0 on hit).
func (c *Cache) Access(addr uint64) uint64 {
	c.tick++
	line := addr >> c.cfg.LineShift
	set := int(line) & (c.cfg.Sets - 1)
	tag := line + 1
	ways := c.tags[set]
	victim, oldest := 0, c.tick
	for w, t := range ways {
		if t == tag {
			c.lru[set][w] = c.tick
			return 0
		}
		if c.lru[set][w] < oldest {
			victim, oldest = w, c.lru[set][w]
		}
	}
	ways[victim] = tag
	c.lru[set][victim] = c.tick
	return c.cfg.MissPenalty
}

// BranchPredictor is a bimodal (2-bit saturating counter) predictor.
type BranchPredictor struct {
	table []uint8
	mask  uint64
}

// NewBranchPredictor builds a predictor with 2^bits counters.
func NewBranchPredictor(bits uint) *BranchPredictor {
	n := 1 << bits
	return &BranchPredictor{table: make([]uint8, n), mask: uint64(n - 1)}
}

// Predict consumes one conditional branch outcome and reports whether the
// predictor got it right.
func (b *BranchPredictor) Predict(pc uint64, taken bool) bool {
	i := (pc >> 1) & b.mask
	ctr := b.table[i]
	predictTaken := ctr >= 2
	correct := predictTaken == taken
	if taken && ctr < 3 {
		b.table[i] = ctr + 1
	} else if !taken && ctr > 0 {
		b.table[i] = ctr - 1
	}
	return correct
}
