package core

import (
	"github.com/lsc-tea/tea/internal/obs"
)

// This file is the observability-enabled twin of parallel.go. The shape of
// the problem: naive per-shard event recording would publish observations
// from the speculative prefix of each shard — observations that junction
// reconciliation later proves wrong — so the merged event stream would
// differ from a sequential replay's. The fix reuses the memoryless-step
// argument: events, like Stats increments, are pure functions of
// (pre-state, edge), so the reconciliation that swaps the speculative
// prefix's Stats for the true prefix's Stats swaps its events the same
// way. Each shard collects raw events tagged with global edge indices into
// a private slice (its per-shard sink — no synchronization on the hot
// path); reconciliation splices true-prefix events with post-convergence
// speculative events; and the merged, edge-ordered stream is folded
// through the same Obs emitters the sequential path uses. The pipeline
// drain charges each chunk's counter delta to one per-shard cell
// (obs.Counter.AddShard), and the aggregate equals the sequential fold by
// the byte-identical-Stats theorem of DESIGN.md §9.

// stepObs is step with event collection: identical Stats increments and
// post-state for every input, additionally appending the edge's events
// (timestamped eidx) to evs. Kept structurally parallel to step so the
// differential tests can hold them against each other.
func (c *Compiled) stepObs(cur StateID, desynced bool, label, instrs uint64, st *Stats, evs *[]obs.Event, eidx uint64) (StateID, bool) {
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
		rec := &c.hot[cur]
		if rec.lab0 == label {
			st.InTraceHits++
			next = rec.tgt0
		} else if rec.lab1 == label {
			st.InTraceHits++
			next = rec.tgt1
		} else if t, ok := c.nextSlow(cur, label); ok {
			st.InTraceHits++
			next = t
		} else {
			if !c.cold[cur].plausible(label) {
				st.Desyncs++
				desynced = true
				*evs = append(*evs, obs.Event{Edge: eidx, Aux: label, State: int32(cur), Kind: obs.EvDesync})
			}
			st.GlobalLookups++
			t, ok, depth := c.entryProbes(label)
			*evs = append(*evs, obs.Event{Edge: eidx, Aux: depth, State: int32(cur), Kind: obs.EvCacheMissProbe})
			if ok {
				st.GlobalHits++
				next = t
			}
			if next == NTE {
				st.TraceExits++
				*evs = append(*evs, obs.Event{Edge: eidx, Aux: label, State: int32(cur), Kind: obs.EvTraceExit})
			} else {
				st.TraceLinks++
				*evs = append(*evs, obs.Event{Edge: eidx, Aux: label, State: int32(next), Kind: obs.EvEntryTableHit})
			}
		}
	} else {
		st.GlobalLookups++
		if t, ok := c.entry(label); ok {
			st.GlobalHits++
			next = t
			st.TraceEnters++
			*evs = append(*evs, obs.Event{Edge: eidx, Aux: label, State: int32(next), Kind: obs.EvTraceEnter})
		}
	}
	if next != NTE && desynced {
		desynced = false
		st.Resyncs++
		*evs = append(*evs, obs.Event{Edge: eidx, Aux: label, State: int32(next), Kind: obs.EvResync})
	}
	return next, desynced
}

// SequentialReplayObs is SequentialReplay with observability: identical
// Stats and final state, with events collected per edge, counters folded
// once, and the derived histograms fed through the shared ingest path. A
// nil context delegates to the plain SequentialReplay.
func SequentialReplayObs(c *Compiled, stream []Edge, o *obs.Obs) (Stats, StateID) {
	if o == nil {
		return SequentialReplay(c, stream)
	}
	var st Stats
	evs := make([]obs.Event, 0, 256)
	base := o.EdgeBase()
	cur, desynced := NTE, false
	for k := range stream {
		cur, desynced = c.stepObs(cur, desynced, stream[k].Label, stream[k].Instrs, &st, &evs, base+uint64(k))
	}
	o.AdvanceEdges(uint64(len(stream)))
	obsFoldReplay(o, 0, &st)
	o.IngestReplay(evs)
	return st, cur
}
