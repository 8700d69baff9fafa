package core

import (
	"fmt"

	"github.com/lsc-tea/tea/internal/btree"
)

// GlobalKind selects the implementation of the global trace container the
// transition function searches on every transition from cold code to hot
// code or from one trace to another (§4.2).
type GlobalKind int

const (
	// GlobalList keeps traces in a linked list, the paper's unoptimized
	// container ("the traces were kept in a linked list").
	GlobalList GlobalKind = iota
	// GlobalBTree keeps trace entries in the global B+ tree.
	GlobalBTree
	// GlobalHash keeps trace entries in a hash map — an idealized
	// container the paper did not evaluate, provided for the ablation.
	GlobalHash
)

func (k GlobalKind) String() string {
	switch k {
	case GlobalList:
		return "list"
	case GlobalBTree:
		return "btree"
	case GlobalHash:
		return "hash"
	}
	return fmt.Sprintf("global?%d", int(k))
}

// LookupConfig selects the transition-function configuration of Table 4.
type LookupConfig struct {
	// Global picks the trace container.
	Global GlobalKind
	// Local enables the per-state local caches that short-circuit repeated
	// trace-to-trace transitions.
	Local bool
	// LocalSize is the number of entries per local cache (power of two;
	// default 4).
	LocalSize int
	// Fanout is the B+ tree order (default btree.DefaultOrder).
	Fanout int
}

// The three loaded configurations of Table 4 plus the implicit baseline.
var (
	// ConfigNoGlobalLocal is Table 4's "No Global / Local": linked-list
	// container, local caches on.
	ConfigNoGlobalLocal = LookupConfig{Global: GlobalList, Local: true}
	// ConfigGlobalNoLocal is Table 4's "Global / No Local": B+ tree, no
	// local caches.
	ConfigGlobalNoLocal = LookupConfig{Global: GlobalBTree, Local: false}
	// ConfigGlobalLocal is Table 4's "Global / Local", the configuration
	// used for all the recording/replaying experiments.
	ConfigGlobalLocal = LookupConfig{Global: GlobalBTree, Local: true}
)

func (c LookupConfig) withDefaults() LookupConfig {
	if c.LocalSize <= 0 {
		c.LocalSize = 4
	}
	// Round LocalSize up to a power of two for direct mapping.
	for c.LocalSize&(c.LocalSize-1) != 0 {
		c.LocalSize++
	}
	if c.Fanout <= 0 {
		c.Fanout = btree.DefaultOrder
	}
	return c
}

func (c LookupConfig) String() string {
	l := "nolocal"
	if c.Local {
		l = "local"
	}
	return fmt.Sprintf("%s/%s", c.Global, l)
}

// EntryIndex is the global trace container: it maps trace entry addresses
// to head states and accounts the probes its searches cost.
type EntryIndex interface {
	// Insert registers (or replaces) a trace entry.
	Insert(addr uint64, s StateID)
	// Lookup resolves an address to a trace head state.
	Lookup(addr uint64) (StateID, bool)
	// Probes returns cumulative search cost in node/element visits.
	Probes() uint64
	// ResetProbes zeroes the probe counter (so population via Insert does
	// not pollute lookup-cost accounting).
	ResetProbes()
	// Len returns the number of entries.
	Len() int
}

// newEntryIndex builds the container selected by the config.
func newEntryIndex(c LookupConfig) EntryIndex {
	switch c.Global {
	case GlobalBTree:
		return &btreeIndex{t: btree.New[StateID](c.Fanout)}
	case GlobalHash:
		return &hashIndex{m: make(map[uint64]StateID)}
	default:
		return &listIndex{known: make(map[uint64]*listNode)}
	}
}

type btreeIndex struct{ t *btree.Map[StateID] }

func (b *btreeIndex) Insert(addr uint64, s StateID) { b.t.Put(addr, s) }
func (b *btreeIndex) Lookup(addr uint64) (StateID, bool) {
	return b.t.Get(addr)
}
func (b *btreeIndex) Probes() uint64 { return b.t.Probes() }
func (b *btreeIndex) ResetProbes()   { b.t.ResetProbes() }
func (b *btreeIndex) Len() int       { return b.t.Len() }

// listIndex is the unoptimized container: a singly linked list scanned
// front to back on every lookup. New traces are prepended, so recently
// created traces are found quickly but cold misses scan the whole list —
// the behaviour that makes gcc and vortex blow up in Table 4's
// "No Global / Local" column.
type listIndex struct {
	head   *listNode
	known  map[uint64]*listNode
	n      int
	probes uint64
}

type listNode struct {
	addr  uint64
	state StateID
	next  *listNode
}

func (l *listIndex) Insert(addr uint64, s StateID) {
	if n, ok := l.known[addr]; ok {
		n.state = s
		return
	}
	n := &listNode{addr: addr, state: s, next: l.head}
	l.head = n
	l.known[addr] = n
	l.n++
}

func (l *listIndex) Lookup(addr uint64) (StateID, bool) {
	for n := l.head; n != nil; n = n.next {
		l.probes++
		if n.addr == addr {
			return n.state, true
		}
	}
	return NTE, false
}

func (l *listIndex) Probes() uint64 { return l.probes }
func (l *listIndex) ResetProbes()   { l.probes = 0 }
func (l *listIndex) Len() int       { return l.n }

type hashIndex struct {
	m      map[uint64]StateID
	probes uint64
}

func (h *hashIndex) Insert(addr uint64, s StateID) { h.m[addr] = s }
func (h *hashIndex) Lookup(addr uint64) (StateID, bool) {
	h.probes++
	s, ok := h.m[addr]
	return s, ok
}
func (h *hashIndex) Probes() uint64 { return h.probes }
func (h *hashIndex) ResetProbes()   { h.probes = 0 }
func (h *hashIndex) Len() int       { return len(h.m) }

// localCache is one state's direct-mapped cache of resolved trace-entry
// targets. Both positive and negative results are cached (see
// Replayer.resolve); AddEntry bumps the replayer's generation, and a cache
// whose gen stamp lags is flushed before its next use, so a negative entry
// can never mask a trace created later.
type localCache struct {
	labels  []uint64
	targets []StateID
	// gen is the replayer generation this cache was last valid for.
	gen uint64
}

func newLocalCache(size int) *localCache {
	return &localCache{labels: make([]uint64, size), targets: make([]StateID, size)}
}

func (c *localCache) slot(label uint64) int {
	// Low bits above the typical instruction alignment spread entries.
	return int((label >> 1) & uint64(len(c.labels)-1))
}

func (c *localCache) get(label uint64) (StateID, bool) {
	i := c.slot(label)
	if c.labels[i] == label {
		return c.targets[i], true
	}
	return NTE, false
}

func (c *localCache) put(label uint64, s StateID) {
	i := c.slot(label)
	c.labels[i] = label
	c.targets[i] = s
}

// flush zeroes the cache in place, restoring the pristine state (every slot
// label 0 → NTE) without giving up the allocation.
func (c *localCache) flush() {
	for i := range c.labels {
		c.labels[i] = 0
		c.targets[i] = NTE
	}
}
