// Package teatool implements the paper's pintool: the Pin analysis tool
// that loads a TEA from a file and replays trace execution on an unmodified
// program (Table 2), or records a TEA online while the program runs
// (Table 3).
package teatool

import (
	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/trace"
)

// ReplayTool replays a previously recorded TEA: each instrumented edge
// advances the automaton, labelling the upcoming code with the TBB it
// corresponds to.
type ReplayTool struct {
	rep *core.Replayer
}

var _ pin.Tool = (*ReplayTool)(nil)

// NewReplayTool creates the replay pintool over automaton a with the given
// transition-function configuration.
func NewReplayTool(a *core.Automaton, cfg core.LookupConfig) *ReplayTool {
	return &ReplayTool{rep: core.NewReplayer(a, cfg)}
}

// Edge implements pin.Tool.
func (t *ReplayTool) Edge(e cfg.Edge, instrs uint64) {
	if e.To != nil {
		t.rep.Advance(e.To.Head, instrs)
		return
	}
	t.rep.AccountOnly(instrs)
}

// Fini implements pin.Tool.
func (t *ReplayTool) Fini(instrs uint64) {
	if instrs > 0 {
		t.rep.AccountOnly(instrs)
	}
}

// Replayer exposes the underlying automaton cursor.
func (t *ReplayTool) Replayer() *core.Replayer { return t.rep }

// Stats returns the replay statistics (coverage, lookup counters).
func (t *ReplayTool) Stats() *core.Stats { return t.rep.Stats() }

// CompiledReplayTool replays a frozen (compiled) TEA: edges are buffered
// and flushed through the zero-allocation batched transition function, so
// the per-edge analysis cost is a slice append in the common case.
type CompiledReplayTool struct {
	rep *core.CompiledReplayer
	buf []core.Edge
}

var _ pin.Tool = (*CompiledReplayTool)(nil)

// compiledBatch is the edge-buffer size: large enough to amortize the
// batch-call overhead, small enough to stay in L1.
const compiledBatch = 256

// NewCompiledReplayTool creates the batched replay pintool over a compiled
// automaton.
func NewCompiledReplayTool(c *core.Compiled) *CompiledReplayTool {
	return &CompiledReplayTool{
		rep: core.NewCompiledReplayer(c),
		buf: make([]core.Edge, 0, compiledBatch),
	}
}

// Edge implements pin.Tool.
func (t *CompiledReplayTool) Edge(e cfg.Edge, instrs uint64) {
	if e.To == nil {
		t.flush()
		t.rep.AccountOnly(instrs)
		return
	}
	t.buf = append(t.buf, core.Edge{Label: e.To.Head, Instrs: instrs})
	if len(t.buf) == cap(t.buf) {
		t.flush()
	}
}

func (t *CompiledReplayTool) flush() {
	if len(t.buf) > 0 {
		t.rep.AdvanceBatch(t.buf)
		t.buf = t.buf[:0]
	}
}

// Fini implements pin.Tool.
func (t *CompiledReplayTool) Fini(instrs uint64) {
	t.flush()
	if instrs > 0 {
		t.rep.AccountOnly(instrs)
	}
}

// Replayer exposes the underlying compiled cursor (flushing any buffered
// edges first so the cursor is current).
func (t *CompiledReplayTool) Replayer() *core.CompiledReplayer {
	t.flush()
	return t.rep
}

// Stats returns the replay statistics, flushing buffered edges first.
func (t *CompiledReplayTool) Stats() *core.Stats {
	t.flush()
	return t.rep.Stats()
}

// CaptureTool records the dynamic block stream of a run as replay currency:
// one core.Edge per reported edge plus the unreported tail, ready to feed
// AdvanceBatch, SequentialReplay or a replay pipeline.
type CaptureTool struct {
	events []core.Edge
	tail   uint64
}

var _ pin.Tool = (*CaptureTool)(nil)

// NewCaptureTool creates an empty stream capture.
func NewCaptureTool() *CaptureTool { return &CaptureTool{} }

// Edge implements pin.Tool.
func (t *CaptureTool) Edge(e cfg.Edge, instrs uint64) {
	if e.To == nil {
		t.tail += instrs
		return
	}
	t.events = append(t.events, core.Edge{Label: e.To.Head, Instrs: instrs})
}

// Fini implements pin.Tool.
func (t *CaptureTool) Fini(instrs uint64) { t.tail += instrs }

// Stream returns the captured edges.
func (t *CaptureTool) Stream() []core.Edge { return t.events }

// Tail returns the instructions executed after the last captured edge
// (accounted to the final state by Stats.AccountTail).
func (t *CaptureTool) Tail() uint64 { return t.tail }

// EdgeCaptureTool records the full dynamic edge stream of a run — the
// cfg.Edge values with their instruction counts, not just the labels
// CaptureTool keeps — as recording currency: the captured run can be
// re-fed to Recorder.Observe or Recorder.ObserveBatch any number of times,
// which is how the recording micro-benchmarks replay one execution against
// many recorder configurations.
type EdgeCaptureTool struct {
	edges  []cfg.Edge
	instrs []uint64
	tail   uint64
}

var _ pin.Tool = (*EdgeCaptureTool)(nil)

// NewEdgeCaptureTool creates an empty edge-stream capture.
func NewEdgeCaptureTool() *EdgeCaptureTool { return &EdgeCaptureTool{} }

// Edge implements pin.Tool. The final nil-To edge (program end) is captured
// too: the recorder's state machine reacts to it (an in-flight trace is
// finished), so a faithful re-feed must include it.
func (t *EdgeCaptureTool) Edge(e cfg.Edge, instrs uint64) {
	t.edges = append(t.edges, e)
	t.instrs = append(t.instrs, instrs)
}

// Fini implements pin.Tool.
func (t *EdgeCaptureTool) Fini(instrs uint64) { t.tail += instrs }

// Edges returns the captured edges.
func (t *EdgeCaptureTool) Edges() []cfg.Edge { return t.edges }

// Instrs returns the per-edge instruction counts, parallel to Edges.
func (t *EdgeCaptureTool) Instrs() []uint64 { return t.instrs }

// Tail returns the instructions executed after the last captured edge.
func (t *EdgeCaptureTool) Tail() uint64 { return t.tail }

// RecordTool records a TEA online (Algorithm 2) while the program runs
// under Pin, using any trace-selection strategy.
type RecordTool struct {
	rec *core.Recorder
}

var _ pin.Tool = (*RecordTool)(nil)

// NewRecordTool creates the recording pintool around a selection strategy.
func NewRecordTool(strat trace.Strategy, cfg core.LookupConfig) *RecordTool {
	return &RecordTool{rec: core.NewRecorder(strat, cfg)}
}

// Edge implements pin.Tool.
func (t *RecordTool) Edge(e cfg.Edge, instrs uint64) {
	t.rec.Observe(e, instrs)
}

// Fini implements pin.Tool.
func (t *RecordTool) Fini(instrs uint64) {
	if instrs > 0 {
		t.rec.Replayer().AccountOnly(instrs)
	}
}

// Recorder exposes the underlying recorder.
func (t *RecordTool) Recorder() *core.Recorder { return t.rec }

// Automaton returns the TEA recorded so far.
func (t *RecordTool) Automaton() *core.Automaton { return t.rec.Automaton() }

// Stats returns the recording run's statistics.
func (t *RecordTool) Stats() *core.Stats { return t.rec.Replayer().Stats() }
