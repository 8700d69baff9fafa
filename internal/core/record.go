package core

import (
	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/trace"
)

// RecState is the recording state machine's state (the paper's
// Algorithm 2): Initial → Executing ⇄ Creating.
type RecState int

const (
	// RecInitial runs once before real execution: it sets up the empty TEA.
	RecInitial RecState = iota
	// RecExecuting means the program runs cold code or previously created
	// traces; the TEA cursor advances on every transition and the trace
	// selector watches for a recording trigger.
	RecExecuting
	// RecCreating means a trace is being recorded; each transition appends
	// a TBB until the selector decides the trace is done.
	RecCreating
)

func (s RecState) String() string {
	switch s {
	case RecInitial:
		return "Initial"
	case RecExecuting:
		return "Executing"
	case RecCreating:
		return "Creating"
	}
	return "?"
}

// Recorder builds a TEA online while the program executes — the paper's
// §3.2: trace recording without constructing any trace code. It is invoked
// once per block transition (after the previous TBB finished, before the
// next begins), exactly like Algorithm 2, with the trace-selection policy
// (MRET, TT, CTT, ...) plugged in as the TriggerTraceRecording /
// AddTBBToTrace / DoneTraceRecording rules.
type Recorder struct {
	strat trace.Strategy
	auto  *Automaton
	rep   *Replayer
	state RecState

	// obs is the (nil when disabled) observability sink; lastSync is the
	// edge-clock reading at the previous sync, for the sync-gap histogram;
	// syncSpan holds the span counters pre-resolved at SetObs time so the
	// sync path never takes the registry lock or builds metric names.
	obs      *obs.Obs
	lastSync uint64
	syncSpan obs.SpanTimer
}

// NewRecorder creates a recorder around the selection strategy, with the
// transition function configured by cfg (the paper records with
// Global/Local, its fastest configuration).
func NewRecorder(strat trace.Strategy, cfg LookupConfig) *Recorder {
	r := &Recorder{strat: strat, state: RecInitial}
	// Algorithm 2, "Initial": InitializeTEA.
	r.auto = NewAutomaton(strat.Set())
	r.rep = NewReplayer(r.auto, cfg)
	return r
}

// Automaton returns the TEA built so far.
func (r *Recorder) Automaton() *Automaton { return r.auto }

// Replayer returns the recorder's cursor/statistics (coverage of the
// recording run itself, Table 3).
func (r *Recorder) Replayer() *Replayer { return r.rep }

// Set returns the recorded trace set.
func (r *Recorder) Set() *trace.Set { return r.strat.Set() }

// State returns the recording state machine's current state.
func (r *Recorder) State() RecState { return r.state }

// Observe consumes one block transition: Current = e.From just finished
// executing instrs dynamic instructions, Next = e.To is about to begin.
func (r *Recorder) Observe(e cfg.Edge, instrs uint64) {
	if r.state == RecInitial {
		// InitializeTEA happened at construction; enter Executing.
		r.state = RecExecuting
	}

	switch r.state {
	case RecExecuting:
		// ChangeState(TEA, Current, Next); the selection rules read whether
		// it left a trace for cold code.
		exit := false
		if e.To != nil {
			from := r.rep.Cur()
			to := r.rep.Advance(e.To.Head, instrs)
			exit = from != NTE && to == NTE
		} else if instrs > 0 {
			r.rep.AccountOnly(instrs)
		}
		// TriggerTraceRecording / StartCreatingTrace.
		if changed := r.strat.Observe(e, exit); changed != nil {
			r.sync(changed)
		}
		if r.strat.Recording() {
			r.state = RecCreating
		}

	case RecCreating:
		// Algorithm 2 performs no ChangeState while creating; the executed
		// instructions still count toward the run's totals.
		if instrs > 0 {
			r.rep.AccountOnly(instrs)
		}
		// AddTBBToTrace / DoneTraceRecording / FinishTrace.
		if changed := r.strat.Observe(e, false); changed != nil {
			r.sync(changed)
		}
		if !r.strat.Recording() {
			r.state = RecExecuting
			// The cursor went stale while creating; resume from NTE. If the
			// next transition enters a trace the global lookup re-acquires it.
			r.rep.ForceState(NTE)
		}
	}
}

// ObserveBatch consumes a run of block transitions: edges[i] is one
// transition and instrs[i] the dynamic instructions the finished block
// executed, exactly as in Observe, which it calls for each edge in order.
//
//tea:hotpath
func (r *Recorder) ObserveBatch(edges []cfg.Edge, instrs []uint64) {
	if len(edges) != len(instrs) {
		panic("core: ObserveBatch edges/instrs length mismatch")
	}
	for i, e := range edges {
		r.Observe(e, instrs[i])
	}
}

// Snapshot returns an independent deep copy of the TEA built so far. The
// copy's states, transition tables and entry table are private to the
// caller and safe to read from other goroutines while recording continues
// on the recorder; the underlying trace set and TBB objects are shared and
// still being mutated, so concurrent readers must confine themselves to the
// automaton's own structure (NumStates, State, Next, Entries, EntryFor).
func (r *Recorder) Snapshot() *Automaton { return r.auto.Clone() }

// sync folds a created or extended trace into the automaton and the
// replayer's global container. With observability attached it is also the
// recorder's sampling point: syncs are rare (once per created or extended
// trace), so this is where the span timing, churn histogram and occupancy
// gauges live — never on the per-edge path.
func (r *Recorder) sync(t *trace.Trace) {
	sp := r.syncSpan.Start()
	r.auto.SyncTrace(t)
	entered := false
	if head, ok := r.auto.EntryFor(t.EntryAddr()); ok {
		r.rep.AddEntry(t.EntryAddr(), head)
		entered = true
	}
	sp.End()
	if o := r.obs; o != nil {
		m := o.Record
		m.Syncs.Add(1)
		if entered {
			m.Entries.Add(1)
		}
		edge := o.EdgeBase()
		m.SyncGap.Observe(edge - r.lastSync)
		r.lastSync = edge
		m.SetBlocks.Set(uint64(r.strat.Set().NumTBBs()))
		if oc, ok := r.strat.(trace.OccupancySource); ok {
			hot, ext := oc.Occupancy()
			m.HotHeads.Set(uint64(hot))
			m.ExtCounts.Set(uint64(ext))
		}
		emit(&r.rep.evs, edge, uint64(t.Len()), r.rep.Cur(), obs.EvSync)
		r.rep.ingest(o)
		r.rep.FlushObs()
	}
}
