package trace

import "github.com/lsc-tea/tea/internal/cfg"

// treeSelector implements Trace Trees (TT) [Gal & Franz 2006] and Compact
// Trace Trees (CTT) [Porto et al. 2009], the other two strategies of
// Table 1. A tree is anchored at a hot loop header; its main path is
// recorded until execution returns to the anchor, and every hot side exit
// is later grown into a new branch of the tree by duplicating the blocks on
// the path back to the anchor. CTT differs only in where a growing path may
// stop: at *any* loop header already present in the tree, not just the
// anchor, which removes most of the tail duplication TT suffers — that
// difference is exactly the TT-column blowup Table 1 shows for gzip/bzip2.
type treeSelector struct {
	name    string
	compact bool
	cfg     Config
	set     *Set

	// anchors counts executions of loop-header candidates.
	anchors *hotTab
	// loopHeads is every address observed as the target of a taken
	// backward branch.
	loopHeads *addrSet
	// extCounts counts executions of a specific side exit (TBB × target).
	extCounts *extTab

	// frozen marks trees that hit MaxTreeBlocks and must not grow.
	frozen map[*Trace]bool
	// headerTBBs maps, per tree, a loop-header address to the TBB a CTT
	// path may link back to.
	headerTBBs map[*Trace]map[uint64]*TBB

	// pos is the TBB execution currently sits on, when inside a tree.
	pos *TBB

	// recording state: a path growing toward the anchor of tree cur.
	recording bool
	cur       *Trace
	last      *TBB
}

type extKey struct {
	tbb    *TBB
	target uint64
}

// NewTT creates a Trace Trees selector.
func NewTT(prog programSymbols, c Config) Strategy {
	return newTree("tt", false, prog, c)
}

// NewCTT creates a Compact Trace Trees selector.
func NewCTT(prog programSymbols, c Config) Strategy {
	return newTree("ctt", true, prog, c)
}

func newTree(name string, compact bool, prog programSymbols, c Config) *treeSelector {
	return &treeSelector{
		name:       name,
		compact:    compact,
		cfg:        c.withDefaults(),
		set:        NewSet(name, prog),
		anchors:    newHotTab(),
		loopHeads:  newAddrSet(),
		extCounts:  newExtTab(),
		frozen:     make(map[*Trace]bool),
		headerTBBs: make(map[*Trace]map[uint64]*TBB),
	}
}

// Name implements Strategy.
func (t *treeSelector) Name() string { return t.name }

// Set implements Strategy.
func (t *treeSelector) Set() *Set { return t.set }

// Observe implements Strategy. Trees ignore exit: sideExit moves their own
// pos onto a link the TEA learns only when the tree is synced.
func (t *treeSelector) Observe(e cfg.Edge, _ bool) *Trace {
	if e.To == nil {
		if t.recording {
			// Program ended mid-path; the blocks already added stay in the
			// tree with their tail exiting to cold code.
			return t.finishPath()
		}
		return nil
	}
	if backwardTaken(e) {
		t.loopHeads.Add(e.To.Head)
	}
	if t.recording {
		return t.grow(e)
	}
	if changed := t.follow(e); changed != nil {
		return changed
	}
	t.countAnchor(e)
	return nil
}

// grow extends the path being recorded by one block, or closes it.
func (t *treeSelector) grow(e cfg.Edge) *Trace {
	// Path closes at the anchor.
	if e.To.Head == t.cur.EntryAddr() {
		mustLink(t.last, t.cur.Head())
		return t.finishPath()
	}
	// CTT: the path may also close at any loop header already in the tree.
	if t.compact {
		if tb, ok := t.headerTBBs[t.cur][e.To.Head]; ok {
			mustLink(t.last, tb)
			return t.finishPath()
		}
	}
	if t.cur.Len() >= t.cfg.MaxTreeBlocks {
		t.frozen[t.cur] = true
		return t.finishPath()
	}
	if t.cfg.MaxSetBlocks > 0 && t.set.NumTBBs() >= t.cfg.MaxSetBlocks {
		return t.finishPath()
	}
	tbb := t.cur.Append(e.To)
	mustLink(t.last, tbb)
	t.last = tbb
	t.registerHeader(t.cur, tbb)
	return nil
}

// follow tracks execution through recorded trees and grows hot side exits.
// It returns a non-nil trace when the tree changed (a free link was added
// or an extension started, which adds a TBB).
func (t *treeSelector) follow(e cfg.Edge) *Trace {
	if t.pos != nil {
		if next, ok := t.pos.Succs[e.To.Head]; ok {
			t.pos = next
			return nil
		}
		// Side exit from t.pos toward e.To.
		exitFrom := t.pos
		tree := exitFrom.Trace
		t.pos = nil
		if changed := t.sideExit(tree, exitFrom, e); changed != nil {
			return changed
		}
	}
	if tr, ok := t.set.ByEntry(e.To.Head); ok {
		t.pos = tr.Head()
	}
	return nil
}

// sideExit handles execution leaving the tree at exitFrom toward e.To.
func (t *treeSelector) sideExit(tree *Trace, exitFrom *TBB, e cfg.Edge) *Trace {
	// A transfer straight back to the anchor — or, for CTT, to a loop
	// header already in the tree — needs no duplication: link immediately.
	if e.To.Head == tree.EntryAddr() {
		mustLink(exitFrom, tree.Head())
		t.pos = tree.Head()
		return tree
	}
	if t.compact {
		if tb, ok := t.headerTBBs[tree][e.To.Head]; ok {
			mustLink(exitFrom, tb)
			t.pos = tb
			return tree
		}
	}
	if t.frozen[tree] {
		return nil
	}
	if t.cfg.MaxSetBlocks > 0 && t.set.NumTBBs() >= t.cfg.MaxSetBlocks {
		return nil
	}
	// Entering another tree is preferred over growing this one.
	if _, other := t.set.ByEntry(e.To.Head); other {
		return nil
	}
	k := extKey{exitFrom, e.To.Head}
	if t.extCounts.Inc(k) < t.cfg.HotThreshold {
		return nil
	}
	t.extCounts.Del(k)
	if tree.Len() >= t.cfg.MaxTreeBlocks {
		t.frozen[tree] = true
		return nil
	}
	// Start growing a new branch: duplicate e.To into the tree.
	tbb := tree.Append(e.To)
	mustLink(exitFrom, tbb)
	t.recording = true
	t.cur = tree
	t.last = tbb
	t.registerHeader(tree, tbb)
	return tree
}

// countAnchor counts loop-header executions and roots a new tree when one
// becomes hot.
func (t *treeSelector) countAnchor(e cfg.Edge) {
	if !backwardTaken(e) {
		return
	}
	head := e.To.Head
	if _, exists := t.set.ByEntry(head); exists {
		return
	}
	if t.anchors.Inc(head) < t.cfg.HotThreshold {
		return
	}
	if t.cfg.MaxSetBlocks > 0 && t.set.NumTBBs() >= t.cfg.MaxSetBlocks {
		return
	}
	tr, err := t.set.NewTrace(e.To)
	if err != nil {
		return
	}
	t.anchors.Del(head)
	t.recording = true
	t.cur = tr
	t.last = tr.Head()
	t.registerHeader(tr, tr.Head())
	t.pos = nil
}

// registerHeader remembers the first TBB instance of each loop header per
// tree, so CTT paths can link back to it.
func (t *treeSelector) registerHeader(tr *Trace, tbb *TBB) {
	if !t.compact {
		return
	}
	addr := tbb.Block.Head
	if addr != tr.EntryAddr() && !t.loopHeads.Has(addr) {
		return
	}
	m := t.headerTBBs[tr]
	if m == nil {
		m = make(map[uint64]*TBB)
		t.headerTBBs[tr] = m
	}
	if _, ok := m[addr]; !ok {
		m[addr] = tbb
	}
}

func (t *treeSelector) finishPath() *Trace {
	tr := t.cur
	t.recording = false
	t.cur, t.last = nil, nil
	return tr
}

// Recording implements Strategy.
func (t *treeSelector) Recording() bool { return t.recording }
