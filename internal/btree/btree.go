// Package btree implements a B+ tree keyed by 64-bit addresses.
//
// The paper's optimized TEA transition function keeps all trace entry
// points in "a global B+ tree" consulted whenever execution transfers from
// cold code to a trace or between traces (§4.2, Table 4). This package is
// that structure. The tree counts node probes so the experiment harness can
// charge a realistic cost per lookup, and the fanout is configurable so the
// ablation bench can sweep it.
package btree

import (
	"fmt"
	"sort"
)

// DefaultOrder is the default maximum number of keys per node.
const DefaultOrder = 16

// Map is a B+ tree from uint64 keys to values of type V. The zero value is
// not usable; construct with New.
type Map[V any] struct {
	order  int
	root   node[V]
	height int
	size   int
	probes uint64

	// probeHook, when set, receives each Get search's node-visit
	// count as it completes — the observability layer's per-lookup probe
	// depth, as opposed to the cumulative probes counter.
	probeHook func(depth uint64)
}

type node[V any] interface {
	// probe-visits are charged by the caller.
	isNode()
}

type leaf[V any] struct {
	keys []uint64
	vals []V
}

type inner[V any] struct {
	// keys[i] is the smallest key reachable under kids[i+1].
	keys []uint64
	kids []node[V]
}

func (*leaf[V]) isNode()  {}
func (*inner[V]) isNode() {}

// New creates an empty tree with the given order (maximum keys per node).
// Orders below 3 are raised to 3.
func New[V any](order int) *Map[V] {
	if order < 3 {
		order = 3
	}
	return &Map[V]{order: order, root: &leaf[V]{}, height: 1}
}

// Bulk builds a tree of the given order directly from strictly ascending
// keys and their values — the freeze path used when an automaton's whole
// entry table is known up front. Leaves are packed to the maximum occupancy
// (a frozen tree is read-mostly, so density beats insert headroom), built
// left to right, and the inner levels are derived bottom-up from the
// subtree minima. The result is a valid tree by Check's invariants and
// remains fully mutable: Put works normally afterwards, which is what lets
// the online recorder keep extending a bulk-loaded container.
//
// Unsorted or duplicate keys fall back to repeated Put, so Bulk is always
// safe to call; the fast path just requires the caller's natural case
// (entry tables are produced in ascending address order).
func Bulk[V any](order int, keys []uint64, vals []V) *Map[V] {
	if order < 3 {
		order = 3
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t := New[V](order)
			for j := range keys {
				t.Put(keys[j], vals[j])
			}
			return t
		}
	}
	if len(keys) == 0 {
		return New[V](order)
	}

	t := &Map[V]{order: order, size: len(keys)}

	// Lay down the leaf level. Chunk sizes are the full order except that a
	// final underflowing chunk borrows from its left neighbour so every
	// non-root leaf holds at least minKeys.
	sizes := bulkChunks(len(keys), order, t.minKeys())
	leaves := make([]node[V], 0, len(sizes))
	mins := make([]uint64, 0, len(sizes))
	off := 0
	for _, n := range sizes {
		l := &leaf[V]{
			keys: append([]uint64(nil), keys[off:off+n]...),
			vals: append([]V(nil), vals[off:off+n]...),
		}
		leaves = append(leaves, l)
		mins = append(mins, l.keys[0])
		off += n
	}

	// Build inner levels until one node remains. An inner node with k kids
	// carries k-1 separators, so the per-node capacity is order+1 kids and
	// the non-root minimum is minKeys+1 kids.
	level, levelMins := leaves, mins
	t.height = 1
	for len(level) > 1 {
		sizes := bulkChunks(len(level), order+1, t.minKeys()+1)
		up := make([]node[V], 0, len(sizes))
		upMins := make([]uint64, 0, len(sizes))
		off := 0
		for _, n := range sizes {
			in := &inner[V]{
				keys: append([]uint64(nil), levelMins[off+1:off+n]...),
				kids: append([]node[V](nil), level[off:off+n]...),
			}
			up = append(up, in)
			upMins = append(upMins, levelMins[off])
			off += n
		}
		level, levelMins = up, upMins
		t.height++
	}
	t.root = level[0]
	return t
}

// bulkChunks splits n items into runs of at most max items where every run
// but a lone first one holds at least min items: full runs, with the final
// remainder rebalanced against its left neighbour when it would underflow.
func bulkChunks(n, max, min int) []int {
	var out []int
	for n > 0 {
		take := max
		if n < take {
			take = n
		}
		rest := n - take
		if rest > 0 && rest < min {
			// The next (final) chunk would underflow; even this one out.
			take = (n + 1) / 2
			if take > max {
				take = max
			}
		}
		out = append(out, take)
		n -= take
	}
	return out
}

// Len returns the number of keys stored.
func (t *Map[V]) Len() int { return t.size }

// Height returns the number of node levels (1 for a single leaf).
func (t *Map[V]) Height() int { return t.height }

// Probes returns the cumulative number of tree nodes visited by Get and Put
// since construction (or the last ResetProbes). The experiment cost model
// charges lookups by this count.
func (t *Map[V]) Probes() uint64 { return t.probes }

// ResetProbes zeroes the probe counter.
func (t *Map[V]) ResetProbes() { t.probes = 0 }

// SetProbeHook installs (or with nil removes) a per-search observer: after
// every Get it receives that search's node-visit count. The hook must be
// cheap and must not call back into the tree.
func (t *Map[V]) SetProbeHook(h func(depth uint64)) { t.probeHook = h }

// ChargeSearch accounts one Get search without descending and
// returns its depth. Every leaf sits at the tree's height, so every search
// visits exactly Height nodes whatever its key: the probe counter and the
// probe hook see what the search itself would have charged.
func (t *Map[V]) ChargeSearch() uint64 {
	depth := uint64(t.height)
	t.probes += depth
	if t.probeHook != nil {
		t.probeHook(depth)
	}
	return depth
}

// Get returns the value stored under key.
func (t *Map[V]) Get(key uint64) (V, bool) {
	n := t.root
	depth := uint64(0)
	for {
		depth++
		switch x := n.(type) {
		case *inner[V]:
			n = x.kids[childIndex(x.keys, key)]
		case *leaf[V]:
			t.probes += depth
			if t.probeHook != nil {
				t.probeHook(depth)
			}
			i := sort.Search(len(x.keys), func(i int) bool { return x.keys[i] >= key })
			if i < len(x.keys) && x.keys[i] == key {
				return x.vals[i], true
			}
			var zero V
			return zero, false
		}
	}
}

// childIndex returns which child of an inner node covers key.
func childIndex(keys []uint64, key uint64) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] > key })
}

// Put stores val under key, replacing any previous value.
func (t *Map[V]) Put(key uint64, val V) {
	split, sepKey, right := t.put(t.root, key, val)
	if split {
		t.root = &inner[V]{keys: []uint64{sepKey}, kids: []node[V]{t.root, right}}
		t.height++
	}
}

func (t *Map[V]) put(n node[V], key uint64, val V) (split bool, sepKey uint64, right node[V]) {
	t.probes++
	switch x := n.(type) {
	case *leaf[V]:
		i := sort.Search(len(x.keys), func(i int) bool { return x.keys[i] >= key })
		if i < len(x.keys) && x.keys[i] == key {
			x.vals[i] = val
			return false, 0, nil
		}
		x.keys = append(x.keys, 0)
		copy(x.keys[i+1:], x.keys[i:])
		x.keys[i] = key
		var zero V
		x.vals = append(x.vals, zero)
		copy(x.vals[i+1:], x.vals[i:])
		x.vals[i] = val
		t.size++
		if len(x.keys) <= t.order {
			return false, 0, nil
		}
		mid := len(x.keys) / 2
		r := &leaf[V]{
			keys: append([]uint64(nil), x.keys[mid:]...),
			vals: append([]V(nil), x.vals[mid:]...),
		}
		x.keys = x.keys[:mid:mid]
		x.vals = x.vals[:mid:mid]
		return true, r.keys[0], r

	case *inner[V]:
		ci := childIndex(x.keys, key)
		childSplit, childSep, childRight := t.put(x.kids[ci], key, val)
		if !childSplit {
			return false, 0, nil
		}
		x.keys = append(x.keys, 0)
		copy(x.keys[ci+1:], x.keys[ci:])
		x.keys[ci] = childSep
		x.kids = append(x.kids, nil)
		copy(x.kids[ci+2:], x.kids[ci+1:])
		x.kids[ci+1] = childRight
		if len(x.keys) <= t.order {
			return false, 0, nil
		}
		mid := len(x.keys) / 2
		sep := x.keys[mid]
		r := &inner[V]{
			keys: append([]uint64(nil), x.keys[mid+1:]...),
			kids: append([]node[V](nil), x.kids[mid+1:]...),
		}
		x.keys = x.keys[:mid:mid]
		x.kids = x.kids[: mid+1 : mid+1]
		return true, sep, r
	}
	panic("btree: unreachable")
}

// minKeys is the underflow threshold for non-root nodes.
func (t *Map[V]) minKeys() int { return t.order / 2 }

// Check validates the structural invariants of the tree: sorted keys,
// separator correctness and node occupancy. It returns an
// error describing the first violation found. Intended for tests.
func (t *Map[V]) Check() error {
	count := 0
	var walk func(n node[V], lo, hi uint64, depth int, root bool) error
	maxDepth := -1
	walk = func(n node[V], lo, hi uint64, depth int, root bool) error {
		switch x := n.(type) {
		case *leaf[V]:
			if maxDepth < 0 {
				maxDepth = depth
			} else if depth != maxDepth {
				return fmt.Errorf("btree: leaves at unequal depths %d vs %d", depth, maxDepth)
			}
			if !root && len(x.keys) < t.minKeys() {
				return fmt.Errorf("btree: leaf underflow: %d keys", len(x.keys))
			}
			if len(x.keys) > t.order {
				return fmt.Errorf("btree: leaf overflow: %d keys", len(x.keys))
			}
			for i, k := range x.keys {
				if k < lo || k >= hi {
					return fmt.Errorf("btree: key %d outside [%d,%d)", k, lo, hi)
				}
				if i > 0 && x.keys[i-1] >= k {
					return fmt.Errorf("btree: unsorted leaf keys")
				}
			}
			count += len(x.keys)
			return nil
		case *inner[V]:
			if len(x.kids) != len(x.keys)+1 {
				return fmt.Errorf("btree: inner with %d keys, %d kids", len(x.keys), len(x.kids))
			}
			if !root && len(x.keys) < t.minKeys() {
				return fmt.Errorf("btree: inner underflow: %d keys", len(x.keys))
			}
			if len(x.keys) > t.order {
				return fmt.Errorf("btree: inner overflow: %d keys", len(x.keys))
			}
			childLo := lo
			for i := range x.kids {
				childHi := hi
				if i < len(x.keys) {
					childHi = x.keys[i]
				}
				if childLo > childHi {
					return fmt.Errorf("btree: separator order violation")
				}
				if err := walk(x.kids[i], childLo, childHi, depth+1, false); err != nil {
					return err
				}
				if i < len(x.keys) {
					childLo = x.keys[i]
				}
			}
			return nil
		}
		return fmt.Errorf("btree: unknown node type")
	}
	if err := walk(t.root, 0, ^uint64(0), 1, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d keys reachable", t.size, count)
	}
	if maxDepth != t.height {
		return fmt.Errorf("btree: height %d but leaves at depth %d", t.height, maxDepth)
	}
	return nil
}
