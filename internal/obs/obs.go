package obs

import (
	"time"
)

// Bucket layouts for the replay histograms. Probe depth is small (B+ tree
// height or a short entry-table probe chain); visit and gap lengths span
// orders of magnitude, so their edges double.
var (
	ProbeDepthBuckets = []uint64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
	VisitEdgeBuckets  = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	ResyncGapBuckets  = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	SyncGapBuckets    = []uint64{16, 64, 256, 1024, 4096, 16384, 65536}
)

// ReplayMetrics is the pre-resolved metric set of the replay paths. The
// counters mirror core.Stats field-for-field (folded in from stats deltas
// at batch boundaries, not incremented per edge); the histograms are
// derived from the event stream, so sequential and parallel replays of the
// same stream produce identical distributions.
type ReplayMetrics struct {
	Blocks, Instrs, TraceBlocks, TraceInstrs *Counter
	InTraceHits, LocalHits, LocalMisses      *Counter
	GlobalLookups, GlobalHits                *Counter
	Enters, Links, Exits, Desyncs, Resyncs   *Counter

	ProbeDepth *Histogram // global-container probe depth per trace-side search
	VisitEdges *Histogram // edges per trace visit (TraceEnter → TraceExit)
	ResyncGap  *Histogram // edges spent desynchronized (Desync → Resync)
}

// RecordMetrics is the pre-resolved metric set of the online recorder.
type RecordMetrics struct {
	Syncs   *Counter // SyncTrace calls (trace creations + extensions)
	Entries *Counter // entry points registered with the replayer

	SyncGap *Histogram // edges between consecutive syncs (trace churn)

	SetBlocks *Gauge // TBBs resident in the trace set
	HotHeads  *Gauge // live hot-head counters in the strategy
	ExtCounts *Gauge // live side-exit counters (tree strategies)
}

// Obs is one observability context: a registry, an event ring, the
// pre-resolved replay/record metric sets, and the logical edge clock.
// Hot paths hold a possibly-nil *Obs and guard every use with a nil
// check — the disabled mode costs one predictable branch on slow paths
// and nothing on fast paths.
//
// An Obs is owned by one replaying/recording goroutine at a time; the
// registry and tracer it feeds are safe to scrape concurrently.
type Obs struct {
	Reg    *Registry
	Tracer *Tracer
	Replay *ReplayMetrics
	Record *RecordMetrics

	// Flight is the always-on post-mortem recorder: breaker opens,
	// recovered panics and failed sessions snapshot the event ring and
	// registry into a bounded artifact ring (see FlightRecorder). It costs
	// nothing until something trips.
	Flight *FlightRecorder

	// edge is the logical clock: stream edges consumed so far. Emitters
	// stamp events from EdgeBase() and move it with AdvanceEdges.
	edge uint64

	// Visit and gap tracking for the derived histograms.
	inVisit   bool
	visitEdge uint64
	inGap     bool
	gapEdge   uint64
}

// New creates an observability context with a fresh registry and a
// default-capacity event ring, with all replay/record metrics registered.
func New() *Obs {
	return NewWith(NewRegistry(), DefaultTracerCap)
}

// NewWith creates an observability context over an existing registry with
// the given event-ring capacity.
func NewWith(reg *Registry, tracerCap int) *Obs {
	o := &Obs{Reg: reg, Tracer: NewTracer(tracerCap)}
	o.Flight = NewFlightRecorder(reg, o.Tracer, 0)
	c := func(name, help string) *Counter { return reg.Counter(name, help) }
	o.Replay = &ReplayMetrics{
		Blocks:        c("tea_replay_blocks_total", "stream edges consumed (block boundaries crossed)"),
		Instrs:        c("tea_replay_instrs_total", "guest instructions replayed"),
		TraceBlocks:   c("tea_replay_trace_blocks_total", "blocks executed inside trace states"),
		TraceInstrs:   c("tea_replay_trace_instrs_total", "instructions executed inside trace states"),
		InTraceHits:   c("tea_replay_in_trace_hits_total", "successor found among the current state's recorded successors"),
		LocalHits:     c("tea_replay_local_hits_total", "per-state local cache hits"),
		LocalMisses:   c("tea_replay_local_misses_total", "per-state local cache misses"),
		GlobalLookups: c("tea_replay_global_lookups_total", "global entry-container lookups"),
		GlobalHits:    c("tea_replay_global_hits_total", "global entry-container hits"),
		Enters:        c("tea_replay_trace_enters_total", "NTE-to-trace transitions"),
		Links:         c("tea_replay_trace_links_total", "trace-to-trace links through the global container"),
		Exits:         c("tea_replay_trace_exits_total", "trace-to-NTE exits"),
		Desyncs:       c("tea_replay_desyncs_total", "automaton/stream desynchronizations"),
		Resyncs:       c("tea_replay_resyncs_total", "recoveries from desynchronization"),
		ProbeDepth: reg.Histogram("tea_replay_probe_depth",
			"global-container slots or nodes inspected per trace-side search", ProbeDepthBuckets),
		VisitEdges: reg.Histogram("tea_replay_trace_visit_edges",
			"edges spent inside traces per visit", VisitEdgeBuckets),
		ResyncGap: reg.Histogram("tea_replay_resync_gap_edges",
			"edges spent desynchronized per desync episode", ResyncGapBuckets),
	}
	o.Record = &RecordMetrics{
		Syncs:   c("tea_record_syncs_total", "traces synchronized into the automaton"),
		Entries: c("tea_record_entries_total", "trace entry points registered"),
		SyncGap: reg.Histogram("tea_record_sync_gap_edges",
			"edges between consecutive trace synchronizations", SyncGapBuckets),
		SetBlocks: reg.Gauge("tea_record_set_blocks", "TBBs resident in the trace set"),
		HotHeads:  reg.Gauge("tea_record_hot_heads", "live hot-head counters in the strategy"),
		ExtCounts: reg.Gauge("tea_record_ext_counts", "live side-exit counters in the strategy"),
	}
	return o
}

// EdgeBase returns the clock value before the next unconsumed edge; the
// replay and record paths stamp the events of an edge or batch from it.
func (o *Obs) EdgeBase() uint64 { return o.edge }

// AdvanceEdges moves the clock forward by n consumed edges.
func (o *Obs) AdvanceEdges(n uint64) { o.edge += n }

// SessionEvent emits one serve-layer event stamped with an explicit source
// id and logical clock (the session's edge watermark, not the replay
// clock), so spliced multi-session event streams stay causally ordered per
// source. Alloc-free: one ring write under the tracer lock.
//
//tea:hotpath
func (o *Obs) SessionEvent(kind EventKind, src uint32, edge, aux uint64) {
	o.Tracer.Emit(Event{Edge: edge, Aux: aux, Src: src, State: -1, Kind: kind})
}

// IngestReplay is the one way replay and record events enter the tracer:
// it feeds a staged, edge-ordered event list into the ring and the derived
// histograms (probe depth, visit length, resync gap). A trace enter opens
// a visit window and a trace exit closes it; a desync opens a gap window
// (a nested desync extends it) and a resync closes it. Every path stages
// its events — the reference Replayer per edge, the compiled kernels per
// batch, the pipeline per chunk at the drain — so the ring contents and
// histograms come out identical however the stream was cut. The window
// effects of each event are applied in order, but the ring writes go
// through one batched, single-lock emit.
func (o *Obs) IngestReplay(events []Event) {
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case EvTraceEnter:
			o.inVisit = true
			o.visitEdge = e.Edge
		case EvTraceExit:
			if o.inVisit {
				o.Replay.VisitEdges.Observe(e.Edge - o.visitEdge)
				o.inVisit = false
			}
		case EvDesync:
			if !o.inGap {
				o.inGap = true
				o.gapEdge = e.Edge
			}
		case EvResync:
			if o.inGap {
				o.Replay.ResyncGap.Observe(e.Edge - o.gapEdge)
				o.inGap = false
			}
		case EvCacheMissProbe:
			o.Replay.ProbeDepth.Observe(e.Aux)
		}
	}
	o.Tracer.EmitBatch(events)
}

// Span measures the wall time of one delimited region into a counter pair
// (<name>_ns_total, <name>_calls_total). Spans are for cold regions —
// trace synchronization, junction reconciliation — never per-edge code.
type Span struct {
	ns    *Counter
	calls *Counter
	start time.Time
}

// End closes the span, accumulating elapsed wall time and a call count.
func (s Span) End() {
	if s.ns == nil {
		return
	}
	s.ns.Add(uint64(time.Since(s.start).Nanoseconds()))
	s.calls.Add(1)
}

// SpanTimer is the span constructor: its two counters are resolved once
// (registry mutex, name concatenation), so Start on a repeating site — the
// recorder's sync span fires once per created or extended trace — touches
// no shared state beyond the clock. The zero SpanTimer (and so one built
// over a nil Obs) starts inert spans, so call sites need no guard.
type SpanTimer struct {
	ns, calls *Counter
}

// NewSpanTimer resolves the counters for a span named tea_span_<name>.
func NewSpanTimer(o *Obs, name string) SpanTimer {
	if o == nil {
		return SpanTimer{}
	}
	return SpanTimer{
		ns:    o.Reg.Counter("tea_span_"+name+"_ns_total", "wall nanoseconds inside "+name),
		calls: o.Reg.Counter("tea_span_"+name+"_calls_total", "entries into "+name),
	}
}

// Start opens a span against the pre-resolved counters.
func (t SpanTimer) Start() Span {
	if t.ns == nil {
		return Span{}
	}
	return Span{ns: t.ns, calls: t.calls, start: time.Now()}
}
