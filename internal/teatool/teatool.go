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
//
// Edges land in fixed-size chunks, so a long capture never regrows one
// pointer-bearing array (each regrowth copies it and hands the collector a
// larger array to scan). Edges and Instrs assemble the flat stream once, at
// its exact length, and assemble it again only if Edge ran since.
type EdgeCaptureTool struct {
	// flat and flatI are the stream as last assembled; full and fullI the
	// chunks filled since, and cur and curI the chunk being filled.
	flat, cur   []cfg.Edge
	flatI, curI []uint64
	full        [][]cfg.Edge
	fullI       [][]uint64
}

// captureChunk is the edge count of one capture chunk.
const captureChunk = 4096

var _ pin.Tool = (*EdgeCaptureTool)(nil)

// NewEdgeCaptureTool creates an empty edge-stream capture.
func NewEdgeCaptureTool() *EdgeCaptureTool { return &EdgeCaptureTool{} }

// Edge implements pin.Tool. The final nil-To edge (program end) is captured
// too: the recorder's state machine reacts to it (an in-flight trace is
// finished), so a faithful re-feed must include it.
func (t *EdgeCaptureTool) Edge(e cfg.Edge, instrs uint64) {
	if len(t.cur) == cap(t.cur) {
		if len(t.cur) > 0 {
			t.full = append(t.full, t.cur)
			t.fullI = append(t.fullI, t.curI)
		}
		t.cur = make([]cfg.Edge, 0, captureChunk)
		t.curI = make([]uint64, 0, captureChunk)
	}
	t.cur = append(t.cur, e)
	t.curI = append(t.curI, instrs)
}

// Fini implements pin.Tool.
func (t *EdgeCaptureTool) Fini(uint64) {}

// assemble appends the chunks captured since the last call to the flat
// stream, in fresh exact-length arrays: a slice returned earlier is never
// written again.
func (t *EdgeCaptureTool) assemble() {
	if len(t.cur) == 0 {
		return
	}
	n := len(t.flat) + len(t.full)*captureChunk + len(t.cur)
	edges := append(make([]cfg.Edge, 0, n), t.flat...)
	instrs := append(make([]uint64, 0, n), t.flatI...)
	for i := range t.full {
		edges = append(edges, t.full[i]...)
		instrs = append(instrs, t.fullI[i]...)
	}
	t.flat = append(edges, t.cur...)
	t.flatI = append(instrs, t.curI...)
	// The chunks are copied; the current one is reused for what follows.
	t.full, t.fullI = nil, nil
	t.cur, t.curI = t.cur[:0], t.curI[:0]
}

// Edges returns the captured edges.
func (t *EdgeCaptureTool) Edges() []cfg.Edge {
	t.assemble()
	return t.flat
}

// Instrs returns the per-edge instruction counts, parallel to Edges.
func (t *EdgeCaptureTool) Instrs() []uint64 {
	t.assemble()
	return t.flatI
}

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
