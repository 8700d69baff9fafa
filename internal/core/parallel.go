package core

import (
	"unsafe"

	"github.com/lsc-tea/tea/internal/obs"
)

// This file holds the memoryless transition function sharded replay rests
// on, step, and the sequential reference replay, which runs the one
// memoryless scan (shard.go) over the whole stream.
//
// The exactness argument (see DESIGN.md §9): with the local caches out of
// the picture, consuming one stream edge is a *memoryless* function — the
// post-state (cursor, desync flag) and every Stats increment are pure
// functions of the pre-state and the edge, because the flat entry table and
// transition spans are immutable. Each shard therefore replays its segment
// speculatively from (NTE, in-sync); reconciliation re-replays the head of
// the segment from the predecessor's true exit state until the true
// trajectory meets the speculative one, swaps the speculative prefix
// accounting for the true prefix accounting, and keeps the speculative
// remainder verbatim. Once the trajectories touch at one edge they coincide
// for the rest of the segment by induction, so the merged Stats are
// byte-identical to a sequential replay. Local caches are excluded because
// their hit/miss counters depend on unboundedly old history, which no
// bounded re-replay can reconstruct; sharded replay (internal/pipeline)
// always uses the cache-less transition function, matching
// SequentialReplay.

// step consumes one edge with the memoryless (cache-less) transition
// function, charging the increments to st and returning the post-state. The
// obsOn instance also appends the edge's events, stamped eidx, to evs:
// events, like Stats increments, are pure functions of (pre-state, edge), so
// junction reconciliation swaps a speculative prefix's events for the true
// prefix's exactly as it swaps the Stats (DESIGN.md §9, §14). The obsOff
// instance ignores evs and eidx.
//
// A trace state's two slots are matched with one compare after a
// conditional select. On a complete successor row (compile.go) the slot's
// kind says what the edge charges — in-trace hit, link or exit — so the
// obsOff instance charges it without a branch and without probing the
// entry table. The obsOn instance takes the probe on links and exits for
// the event's probe depth. Only unmatched labels (a desync off a row, the
// span tail or a miss off any other state) and edges from NTE search the
// entry table.
func step[M obsMode](c *Compiled, cur StateID, desynced bool, label, instrs uint64, st *Stats, evs *[]obs.Event, eidx uint64) (StateID, bool) {
	var mode M
	emitting := unsafe.Sizeof(mode) != 0
	if instrs != 0 {
		st.Blocks++
		st.Instrs += instrs
		if cur != NTE {
			st.TraceBlocks++
			st.TraceInstrs += instrs
		}
	}
	var next StateID
	if cur != NTE {
		// The obsOn instance branches on the kind anyway (it probes on
		// links and exits), so it selects the slot with a branch too.
		var lab uint64
		var tgt StateID
		var kind slotKind
		if emitting {
			lab, tgt, kind = c.hot[cur].pickBranch(label)
		} else {
			lab, tgt, kind = c.hot[cur].pick(label)
		}
		if lab == label && (!emitting || kind == slotTrace) {
			st.charge(kind)
			next = tgt
		} else if t, ok := c.nextSlow(cur, label); ok {
			st.InTraceHits++
			next = t
		} else {
			if !c.cold[cur].plausible(label) {
				st.Desyncs++
				desynced = true
				if emitting {
					emit(evs, eidx, label, cur, obs.EvDesync)
				}
			}
			st.GlobalLookups++
			var t StateID
			var ok bool
			if emitting {
				var depth uint64
				t, ok, depth = c.entryProbes(label)
				emit(evs, eidx, depth, cur, obs.EvCacheMissProbe)
			} else {
				t, ok = c.entry(label)
			}
			if ok {
				st.GlobalHits++
				next = t
			}
			if next == NTE {
				st.TraceExits++
				if emitting {
					emit(evs, eidx, label, cur, obs.EvTraceExit)
				}
			} else {
				st.TraceLinks++
				if emitting {
					emit(evs, eidx, label, next, obs.EvEntryTableHit)
				}
			}
		}
	} else {
		st.GlobalLookups++
		if t, ok := c.entry(label); ok {
			st.GlobalHits++
			next = t
			st.TraceEnters++
			if emitting {
				emit(evs, eidx, label, next, obs.EvTraceEnter)
			}
		}
	}
	if next != NTE && desynced {
		desynced = false
		st.Resyncs++
		if emitting {
			emit(evs, eidx, label, next, obs.EvResync)
		}
	}
	return next, desynced
}

// charge counts one matched slot of the given kind without branching on
// it: an in-trace hit, or an entry-table lookup that links or exits.
func (s *Stats) charge(kind slotKind) {
	link, exit := uint64(kind&slotLink), uint64(kind>>1)
	lookup := link | exit
	s.InTraceHits += lookup ^ 1
	s.GlobalLookups += lookup
	s.GlobalHits += link
	s.TraceLinks += link
	s.TraceExits += exit
}

// SequentialReplay replays the stream in order from NTE with the
// memoryless (cache-less) transition function and returns the stats and
// final state. It is the reference sharded replay (internal/pipeline) must
// match byte for byte, and equals a CompiledReplayer over a Local-less
// Compile of the same automaton. With an observability context the events
// are collected per edge, the counters folded once, and the events and
// derived histograms fed through the shared ingest path; a nil o runs
// dark.
func SequentialReplay(c *Compiled, stream []Edge, o *obs.Obs) (Stats, StateID) {
	var st Stats
	if o == nil {
		cur, _, _ := scan[obsOff](c, stream, 0, NTE, false, &st, nil)
		return st, cur
	}
	evs := make([]obs.Event, 0, 256)
	cur, _, _ := scan[obsOn](c, stream, o.EdgeBase(), NTE, false, &st, &evs)
	o.AdvanceEdges(uint64(len(stream)))
	FoldReplayObs(o, 0, &st)
	o.IngestReplay(evs)
	return st, cur
}

// Add accumulates o into s field by field — the merge operation junction
// reconciliation and the pipeline drain build totals with.
func (s *Stats) Add(o *Stats) { s.add(o) }

// add accumulates o into s field by field.
func (s *Stats) add(o *Stats) {
	s.Blocks += o.Blocks
	s.Instrs += o.Instrs
	s.TraceBlocks += o.TraceBlocks
	s.TraceInstrs += o.TraceInstrs
	s.InTraceHits += o.InTraceHits
	s.LocalHits += o.LocalHits
	s.LocalMisses += o.LocalMisses
	s.GlobalLookups += o.GlobalLookups
	s.GlobalHits += o.GlobalHits
	s.TraceEnters += o.TraceEnters
	s.TraceLinks += o.TraceLinks
	s.TraceExits += o.TraceExits
	s.Desyncs += o.Desyncs
	s.Resyncs += o.Resyncs
}

// sub removes o from s field by field.
func (s *Stats) sub(o *Stats) {
	s.Blocks -= o.Blocks
	s.Instrs -= o.Instrs
	s.TraceBlocks -= o.TraceBlocks
	s.TraceInstrs -= o.TraceInstrs
	s.InTraceHits -= o.InTraceHits
	s.LocalHits -= o.LocalHits
	s.LocalMisses -= o.LocalMisses
	s.GlobalLookups -= o.GlobalLookups
	s.GlobalHits -= o.GlobalHits
	s.TraceEnters -= o.TraceEnters
	s.TraceLinks -= o.TraceLinks
	s.TraceExits -= o.TraceExits
	s.Desyncs -= o.Desyncs
	s.Resyncs -= o.Resyncs
}
