package core

import (
	"github.com/lsc-tea/tea/internal/obs"
)

// This file is the bridge between core and the observability layer. The
// direction of knowledge is one-way — obs knows nothing about core — so
// the counter fold lives here: replay counters are not incremented on the
// hot path but folded in from Stats deltas at batch boundaries (AdvanceBatch
// epilogue, FlushObs, shard reconciliation), which keeps the enabled-mode
// per-edge cost at zero atomics for counter maintenance. The compiled
// kernels' disabled mode carries no obs code at all (obsmode.go); the
// reference Replayer pays a nil check on its slow branches and one per
// edge. Every path stages its events with emit and hands them to
// obs.IngestReplay, which derives the replay histograms.

// FoldReplayObs charges a Stats delta to the replay counter set under the
// given shard's cells; the pipeline drains call it at sequence boundaries.
func FoldReplayObs(o *obs.Obs, shard int, d *Stats) {
	m := o.Replay
	m.Blocks.AddShard(shard, d.Blocks)
	m.Instrs.AddShard(shard, d.Instrs)
	m.TraceBlocks.AddShard(shard, d.TraceBlocks)
	m.TraceInstrs.AddShard(shard, d.TraceInstrs)
	m.InTraceHits.AddShard(shard, d.InTraceHits)
	m.LocalHits.AddShard(shard, d.LocalHits)
	m.LocalMisses.AddShard(shard, d.LocalMisses)
	m.GlobalLookups.AddShard(shard, d.GlobalLookups)
	m.GlobalHits.AddShard(shard, d.GlobalHits)
	m.Enters.AddShard(shard, d.TraceEnters)
	m.Links.AddShard(shard, d.TraceLinks)
	m.Exits.AddShard(shard, d.TraceExits)
	m.Desyncs.AddShard(shard, d.Desyncs)
	m.Resyncs.AddShard(shard, d.Resyncs)
}

// SetObs attaches (or with nil detaches) an observability context to the
// reference replayer. Counters fold from the point of attachment; when the
// global container is the B+ tree, its per-search probe hook additionally
// feeds a tea_btree_probe_depth histogram covering every tree search,
// NTE-side lookups included.
func (r *Replayer) SetObs(o *obs.Obs) {
	r.obs = o
	r.obsFolded = r.stats
	if bi, ok := r.index.(*btreeIndex); ok {
		if o == nil {
			bi.t.SetProbeHook(nil)
		} else {
			h := o.Reg.Histogram("tea_btree_probe_depth",
				"B+ tree nodes visited per global-container search", obs.ProbeDepthBuckets)
			bi.t.SetProbeHook(h.Observe)
		}
	}
}

// Obs returns the attached observability context (nil when disabled).
func (r *Replayer) Obs() *obs.Obs { return r.obs }

// FlushObs folds the Stats accumulated since the last flush (or since
// SetObs) into the replay counters. The reference replayer does not fold
// per edge; callers flush at natural boundaries — end of a replay pass,
// recorder sync, metrics scrape.
func (r *Replayer) FlushObs() {
	o := r.obs
	if o == nil {
		return
	}
	d := r.stats
	d.sub(&r.obsFolded)
	r.obsFolded = r.stats
	FoldReplayObs(o, 0, &d)
}

// lookupGlobalFrom is resolve's global search with observability: the
// container's cumulative probe counter is read around the lookup so the
// per-search depth is staged as a CacheMiss→probe event, which feeds the
// probe-depth histogram — the Table 4 ablation signal.
func (r *Replayer) lookupGlobalFrom(from StateID, label uint64) StateID {
	o := r.obs
	if o == nil {
		return r.lookupGlobal(label)
	}
	before := r.index.Probes()
	t := r.lookupGlobal(label)
	emit(&r.evs, o.EdgeBase(), r.index.Probes()-before, from, obs.EvCacheMissProbe)
	return t
}

// ingest hands the events staged since the last call to o.IngestReplay:
// Advance calls it once per edge, the recorder once per sync.
func (r *Replayer) ingest(o *obs.Obs) {
	if len(r.evs) > 0 {
		o.IngestReplay(r.evs)
		r.evs = r.evs[:0]
	}
}

// SetObs attaches an observability context to the compiled replayer.
// AdvanceBatch then runs its kernels' obsOn instances, which stage events
// from slow branches only, and ingests the events and folds the counters
// once per batch; with a nil context it runs the obsOff instances.
func (r *CompiledReplayer) SetObs(o *obs.Obs) { r.obs = o }

// Obs returns the attached observability context (nil when disabled).
func (r *CompiledReplayer) Obs() *obs.Obs { return r.obs }

// SetObs attaches an observability context to the recorder and its
// replayer: replay metrics flow from the cursor, record metrics
// (sync spans, entry churn, table occupancy) from the recorder itself.
func (r *Recorder) SetObs(o *obs.Obs) {
	r.obs = o
	r.rep.SetObs(o)
	r.syncSpan = obs.NewSpanTimer(o, "record_sync")
	if o != nil {
		r.lastSync = o.EdgeBase()
	}
}

// Obs returns the attached observability context (nil when disabled).
func (r *Recorder) Obs() *obs.Obs { return r.obs }
