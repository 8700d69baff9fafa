// Package core implements TEA — the Trace Execution Automaton — the
// paper's primary contribution.
//
// A TEA is a deterministic finite automaton with one state per Trace Basic
// Block (TBB) plus the distinguished NTE state ("No Trace being Executed").
// Transition labels are program counters: feeding the dynamic PC stream
// into the automaton maps, at every instant, the executing instruction to
// the TBB instance it belongs to, without replicating any trace code.
//
// Representation. Following the paper's implementation (§4.2), the
// automaton stores explicitly only the *in-trace* transitions of each TBB
// state; every transition into a trace — from NTE (cold code) or from a
// trace exit (trace-to-trace linking) — is resolved through the entry
// table, which the replayer materializes as either a global B+ tree or a
// linked list, optionally front-ended by small per-state local caches
// (Table 4's configurations). Transitions to NTE are the default for any
// unmatched label, which is semantically identical to Algorithm 1's
// explicit TBB→NTE transitions; the logical view (FullTransitions) renders
// them explicitly for inspection and for verifying the paper's Properties 1
// and 2.
package core

import (
	"fmt"
	"sort"

	"github.com/lsc-tea/tea/internal/trace"
)

// StateID identifies a state within one Automaton. NTE is always state 0.
type StateID int32

// NTE is the "No Trace being Executed" state (paper §3).
const NTE StateID = 0

// State is one automaton state. The zero StateID is NTE, whose TBB is nil.
type State struct {
	ID  StateID
	TBB *trace.TBB

	// In-trace transitions, sorted by label. A TBB has at most a handful;
	// lookups use linear scan below a threshold and binary search above.
	labels  []uint64
	targets []StateID
}

// Next resolves an in-trace transition on label.
func (s *State) Next(label uint64) (StateID, bool) {
	n := len(s.labels)
	if n <= 4 {
		for i := 0; i < n; i++ {
			if s.labels[i] == label {
				return s.targets[i], true
			}
		}
		return NTE, false
	}
	i := sort.Search(n, func(i int) bool { return s.labels[i] >= label })
	if i < n && s.labels[i] == label {
		return s.targets[i], true
	}
	return NTE, false
}

// NumTrans returns the number of explicit in-trace transitions.
func (s *State) NumTrans() int { return len(s.labels) }

// Name renders the state: "NTE" or the paper's $$Ti.block notation.
func (s *State) Name() string {
	if s.TBB == nil {
		return "NTE"
	}
	return s.TBB.Name()
}

func (s *State) String() string { return s.Name() }

// insertTrans adds (or rebinds) one transition, keeping the label slice
// sorted. States hold at most a handful of transitions, so the shifting
// insert is cheaper than any rebuild — and it is what makes SyncTrace cost
// O(changed edges) instead of O(trace).
func (s *State) insertTrans(label uint64, target StateID) {
	n := len(s.labels)
	i := sort.Search(n, func(i int) bool { return s.labels[i] >= label })
	if i < n && s.labels[i] == label {
		s.targets[i] = target
		return
	}
	s.labels = append(s.labels, 0)
	copy(s.labels[i+1:], s.labels[i:])
	s.labels[i] = label
	s.targets = append(s.targets, 0)
	copy(s.targets[i+1:], s.targets[i:])
	s.targets[i] = target
}

// Automaton is a TEA: the state set plus the trace-entry table.
type Automaton struct {
	states []*State
	byTBB  map[*trace.TBB]StateID

	// entries maps a trace entry address to its head state; it is the
	// canonical content of the NTE transition table and of trace-to-trace
	// linking.
	entries map[uint64]StateID

	// entriesCache is the sorted rendering of entries, rebuilt lazily when
	// entriesDirty: Entries() is called from verifier and dump loops and
	// must not pay a sort-and-allocate per call.
	entriesCache []Entry
	entriesDirty bool

	// synced remembers, per trace, how much of the trace (TBB count and
	// link-log length) this automaton has already folded in, so SyncTrace
	// applies only the delta.
	synced map[*trace.Trace]syncMark

	// version counts structural mutations (SyncTrace calls): consumers that
	// compile the automaton into a flat form (the record pipeline's
	// snapshots) compare it against their build stamp to know when to
	// rebuild.
	version uint64

	set *trace.Set
}

// syncMark is the high-water mark of one trace's state already mirrored
// into the automaton.
type syncMark struct {
	tbbs  int
	links int
}

// NewAutomaton creates a TEA containing only the NTE state (Algorithm 2's
// InitializeTEA).
func NewAutomaton(set *trace.Set) *Automaton {
	return &Automaton{
		states:  []*State{{ID: NTE}},
		byTBB:   make(map[*trace.TBB]StateID),
		entries: make(map[uint64]StateID),
		synced:  make(map[*trace.Trace]syncMark),
		set:     set,
	}
}

// Build converts a trace set into its TEA (the paper's Algorithm 1).
//
// Lines 1-2 initialize the automaton with the lone NTE state; lines 3-5 add
// one state per TBB (Property 1: every TBB execution is representable);
// lines 6-17 add the transitions: in-trace successor edges become explicit
// labeled transitions, successors outside any trace become (implicit)
// transitions to NTE, and the NTE→trace-head transitions are recorded in
// the entry table (Property 2: every transition of every TBB is
// represented).
func Build(set *trace.Set) *Automaton {
	a := NewAutomaton(set)
	for _, t := range set.Traces {
		a.SyncTrace(t)
	}
	return a
}

// Set returns the trace set this automaton represents.
func (a *Automaton) Set() *trace.Set { return a.set }

// NumStates returns the state count including NTE.
func (a *Automaton) NumStates() int { return len(a.states) }

// NumTrans returns the total explicit in-trace transitions.
func (a *Automaton) NumTrans() int {
	n := 0
	for _, s := range a.states {
		n += len(s.labels)
	}
	return n
}

// State returns the state with the given id.
func (a *Automaton) State(id StateID) *State { return a.states[id] }

// Version returns the structural mutation counter: it advances on every
// SyncTrace, so a consumer holding a compiled snapshot can tell whether the
// automaton has changed underneath it since the snapshot was taken.
func (a *Automaton) Version() uint64 { return a.version }

// StateFor returns the state representing tbb.
func (a *Automaton) StateFor(tbb *trace.TBB) (StateID, bool) {
	id, ok := a.byTBB[tbb]
	return id, ok
}

// EntryFor returns the head state of the trace entered at addr, if any.
// This is the canonical (structure-free) form of the global lookup.
func (a *Automaton) EntryFor(addr uint64) (StateID, bool) {
	id, ok := a.entries[addr]
	return id, ok
}

// Entries returns the entry table as (address, head state) pairs in
// ascending address order. The slice is cached and invalidated by
// SyncTrace; callers must treat it as read-only.
func (a *Automaton) Entries() []Entry {
	if a.entriesDirty || a.entriesCache == nil {
		out := a.entriesCache[:0]
		if cap(out) < len(a.entries) {
			out = make([]Entry, 0, len(a.entries))
		}
		for addr, id := range a.entries {
			out = append(out, Entry{addr, id})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
		a.entriesCache = out
		a.entriesDirty = false
	}
	return a.entriesCache
}

// Entry is one NTE→trace transition: a trace entry address and its head
// state.
type Entry struct {
	Addr  uint64
	State StateID
}

// SyncTrace brings the automaton up to date with t: states are created for
// any new TBB instances, the new link events of t's change log are applied
// as transition deltas, and the entry table learns t's entry address. It
// is what the online recorder calls each time a trace is created or
// extended, and what Build calls per trace.
//
// The sync is incremental: the automaton remembers how many TBBs and link
// events of t it has already mirrored, so extending an N-TBB trace by one
// block costs O(new edges), not O(N) map rebuilds. Replaying the link-log
// suffix reproduces exactly the successor tables the TBBs hold, because
// the log records every effective Succs mutation in application order. The
// first sync of a trace reads the Succs maps themselves instead — for a
// well-formed trace the two are identical (the log's final state *is* the
// Succs content), and it keeps the automaton faithful to traces whose
// successor tables were populated outside Link (hand-built or corrupted
// fixtures the static verifier must still see).
func (a *Automaton) SyncTrace(t *trace.Trace) {
	mark, seen := a.synced[t]
	tbbs := t.TBBs
	for _, tbb := range tbbs[mark.tbbs:] {
		if _, ok := a.byTBB[tbb]; ok {
			continue
		}
		id := StateID(len(a.states))
		a.states = append(a.states, &State{ID: id, TBB: tbb})
		a.byTBB[tbb] = id
	}
	log := t.LinkLog()
	if !seen {
		for _, tbb := range tbbs {
			from := a.states[a.byTBB[tbb]]
			for label, succ := range tbb.Succs {
				from.insertTrans(label, a.byTBB[succ])
			}
		}
	} else {
		for _, ev := range log[mark.links:] {
			a.states[a.byTBB[ev.From]].insertTrans(ev.Label, a.byTBB[ev.To])
		}
	}
	head := a.byTBB[t.Head()]
	if old, ok := a.entries[t.EntryAddr()]; !ok || old != head {
		a.entries[t.EntryAddr()] = head
		a.entriesDirty = true
	}
	a.synced[t] = syncMark{tbbs: len(tbbs), links: len(log)}
	a.version++
}

// Clone returns a deep copy of the automaton's own structure: states,
// transition tables, entry table and sync marks. The copy shares the
// (append-only) trace set and TBB objects with the original, so it remains
// a valid automaton over the same traces; the online recorder uses it to
// publish read-only snapshots while recording continues on the original.
func (a *Automaton) Clone() *Automaton {
	c := &Automaton{
		states:       make([]*State, len(a.states)),
		byTBB:        make(map[*trace.TBB]StateID, len(a.byTBB)),
		entries:      make(map[uint64]StateID, len(a.entries)),
		entriesDirty: true,
		synced:       make(map[*trace.Trace]syncMark, len(a.synced)),
		version:      a.version,
		set:          a.set,
	}
	for i, s := range a.states {
		ns := &State{ID: s.ID, TBB: s.TBB}
		ns.labels = append([]uint64(nil), s.labels...)
		ns.targets = append([]StateID(nil), s.targets...)
		c.states[i] = ns
	}
	for k, v := range a.byTBB {
		c.byTBB[k] = v
	}
	for k, v := range a.entries {
		c.entries[k] = v
	}
	for k, v := range a.synced {
		c.synced[k] = v
	}
	return c
}

// Transition is one logical DFA transition for inspection: from --label-->
// to. InTrace distinguishes explicit in-trace edges from entry-table and
// default-NTE edges.
type Transition struct {
	From    StateID
	Label   uint64
	To      StateID
	InTrace bool
}

// FullTransitions renders the complete logical transition relation of one
// state, including the transitions Algorithm 1 would add explicitly:
// in-trace successor edges, trace-linking edges for static successors that
// enter other traces, and TBB→NTE edges for static successors in cold
// code. For NTE it renders the entry table.
func (a *Automaton) FullTransitions(id StateID) []Transition {
	s := a.states[id]
	var out []Transition
	if s.TBB == nil {
		for _, e := range a.Entries() {
			out = append(out, Transition{NTE, e.Addr, e.State, false})
		}
		return out
	}
	seen := make(map[uint64]bool)
	for i, label := range s.labels {
		out = append(out, Transition{id, label, s.targets[i], true})
		seen[label] = true
	}
	for _, succ := range staticSuccs(s.TBB) {
		if seen[succ] {
			continue
		}
		seen[succ] = true
		if to, ok := a.entries[succ]; ok {
			out = append(out, Transition{id, succ, to, false})
		} else {
			out = append(out, Transition{id, succ, NTE, false})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// staticSuccs returns the statically known successor addresses of a TBB's
// block: the branch target of a direct branch and the fall-through address.
// Indirect terminators contribute no static successors.
func staticSuccs(tbb *trace.TBB) []uint64 {
	term := tbb.Block.Term
	var out []uint64
	if term.IsBranch() && !term.IsIndirect() && term.Op.String() != "halt" {
		out = append(out, term.Target)
	}
	if ft, ok := tbb.Block.FallThrough(); ok {
		out = append(out, ft)
	}
	return out
}

// Check verifies the automaton's structural invariants and the paper's
// correctness properties against its trace set:
//
//   - Property 1: every TBB of every trace has exactly one state.
//   - Property 2: every in-trace successor edge of every TBB is an explicit
//     transition, and every trace entry is in the entry table.
//   - Determinism: transition labels within a state are strictly sorted
//     and unique, and all targets are valid states.
func (a *Automaton) Check() error {
	if len(a.states) == 0 || a.states[0].TBB != nil {
		return fmt.Errorf("core: state 0 must be NTE")
	}
	seen := make(map[*trace.TBB]StateID)
	for _, s := range a.states[1:] {
		if s.TBB == nil {
			return fmt.Errorf("core: non-NTE state %d has no TBB", s.ID)
		}
		if prev, dup := seen[s.TBB]; dup {
			return fmt.Errorf("core: TBB %s has two states (%d, %d)", s.TBB, prev, s.ID)
		}
		seen[s.TBB] = s.ID
		for i := range s.labels {
			if i > 0 && s.labels[i-1] >= s.labels[i] {
				return fmt.Errorf("core: state %d labels not strictly sorted", s.ID)
			}
			if int(s.targets[i]) <= 0 || int(s.targets[i]) >= len(a.states) {
				return fmt.Errorf("core: state %d transition to invalid state %d", s.ID, s.targets[i])
			}
		}
	}
	if a.set == nil {
		return nil
	}
	for _, t := range a.set.Traces {
		for _, tbb := range t.TBBs {
			id, ok := a.byTBB[tbb]
			if !ok {
				return fmt.Errorf("core: property 1 violated: %s has no state", tbb)
			}
			for label, succ := range tbb.Succs {
				got, ok := a.states[id].Next(label)
				if !ok || got != a.byTBB[succ] {
					return fmt.Errorf("core: property 2 violated: %s --0x%x--> %s missing", tbb, label, succ)
				}
			}
		}
		if head, ok := a.entries[t.EntryAddr()]; !ok || head != a.byTBB[t.Head()] {
			return fmt.Errorf("core: property 2 violated: entry 0x%x of %s not in entry table", t.EntryAddr(), t)
		}
	}
	return nil
}
