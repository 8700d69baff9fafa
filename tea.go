// Package tea is the public API of the Trace Execution Automata library, a
// from-scratch reproduction of "Trace Execution Automata in Dynamic Binary
// Translation" (Porto, Araujo, Borin, Wu — ISCA/AMAS-BT 2010).
//
// A TEA is a deterministic finite automaton that maps the executing
// program counter to the Trace Basic Block (TBB) of a previously recorded
// trace — storing traces implicitly, without replicating code. The library
// bundles everything the paper's evaluation needs: a synthetic x86-like
// ISA with assembler and interpreter, a StarDBT-like translator, a
// Pin-like instrumentation engine, the MRET/TT/CTT trace selectors, the
// automaton itself with its global-B+ tree/local-cache transition
// function, serialization, profiling and phase detection.
//
// Quick start:
//
//	prog, err := tea.Assemble("copy", src)        // or tea.Benchmark("176.gcc", 2_000_000)
//	ctx := context.Background()
//	set, err := tea.RecordTraces(ctx, prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
//	a := tea.Build(set)                            // Algorithm 1
//	data, err := tea.Encode(a)                     // store for reuse
//	stats, err := tea.Replay(ctx, prog, a, tea.ConfigGlobalLocal, 0, nil)
//	fmt.Printf("coverage: %.1f%%\n", stats.Coverage()*100)
//
// Failure semantics: exported functions report all input-dependent
// failures as errors — a corrupt serialized TEA surfaces as a
// *DecodeError, never a panic — and the entry points that run a guest
// program (RecordTraces, Replay, RecordOnline) take a context and a step
// cap, so cancellation, deadlines and step budgets stop them with partial
// results.
//
// To replay a captured stream slice on several cores, feed it to
// NewReplayPipeline and read the answer at Barrier: it is byte-identical
// to AdvanceBatch over the same slice on a CompiledReplayer of a form
// compiled without local caches. The pipeline is the one
// sharded executor; a caller cancels it by no longer feeding and calling
// Close (DESIGN.md §14).
//
// The deeper machinery is exported through aliases below; see the package
// documentation of the internal packages for the full design discussion.
package tea

import (
	"context"
	"net/http"

	"github.com/lsc-tea/tea/internal/asm"
	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/dbt"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/optim"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/pipeline"
	"github.com/lsc-tea/tea/internal/profile"
	"github.com/lsc-tea/tea/internal/serve"
	"github.com/lsc-tea/tea/internal/serve/client"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/ucsim"
	"github.com/lsc-tea/tea/internal/verify"
	"github.com/lsc-tea/tea/internal/workload"
)

// Core model types.
type (
	// Program is a laid-out program for the synthetic ISA.
	Program = isa.Program
	// Machine is the functional interpreter executing a Program.
	Machine = cpu.Machine
	// Trace is a recorded hot-code region.
	Trace = trace.Trace
	// TraceSet is the collection of traces recorded for one run.
	TraceSet = trace.Set
	// TraceConfig carries trace-selection knobs.
	TraceConfig = trace.Config

	// Automaton is the TEA itself.
	Automaton = core.Automaton
	// LookupConfig selects the transition-function configuration (Table 4).
	LookupConfig = core.LookupConfig
	// Replayer walks a TEA along a dynamic block stream.
	Replayer = core.Replayer
	// ReplayStats carries coverage and lookup counters.
	ReplayStats = core.Stats

	// Compiled is a frozen automaton lowered into flat arrays for the
	// fastest replay path (no interface dispatch, no pointer chasing).
	Compiled = core.Compiled
	// CompiledReplayer is the zero-allocation batched cursor over Compiled.
	CompiledReplayer = core.CompiledReplayer
	// StreamEdge is one captured dynamic-block-stream event (label, instrs).
	StreamEdge = core.Edge

	// Profile holds per-TBB-instance execution counts.
	Profile = profile.Profile
	// PhaseDetector finds stable/unstable phases from trace exit ratios.
	PhaseDetector = profile.PhaseDetector

	// SimConfig configures the micro-architectural timing simulator.
	SimConfig = ucsim.Config
	// SimResult is a TEA-attributed simulation of one execution.
	SimResult = ucsim.Result
)

// The transition-function configurations of Table 4.
var (
	ConfigGlobalLocal   = core.ConfigGlobalLocal
	ConfigGlobalNoLocal = core.ConfigGlobalNoLocal
)

// Assemble translates assembly source into a Program.
func Assemble(name, src string) (*Program, error) { return asm.Assemble(name, src) }

// MustAssemble is Assemble for known-good sources; it panics on error.
func MustAssemble(name, src string) *Program { return asm.MustAssemble(name, src) }

// NewMachine creates an interpreter for the program.
func NewMachine(p *Program) *Machine { return cpu.New(p) }

// Benchmark generates one of the 26 synthetic SPEC CPU2000 stand-ins,
// calibrated to roughly target dynamic instructions. Names accept either
// form: "176.gcc" or "gcc".
func Benchmark(name string, target uint64) (*Program, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, &UnknownBenchmarkError{Name: name}
	}
	return workload.Generate(spec, target)
}

// BenchmarkNames lists the available synthetic benchmarks in Table 1 order.
func BenchmarkNames() []string {
	specs := workload.Benchmarks()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// UnknownBenchmarkError reports a benchmark name that is not in the suite.
type UnknownBenchmarkError struct{ Name string }

func (e *UnknownBenchmarkError) Error() string {
	return "tea: unknown benchmark " + e.Name
}

// RecordTraces executes the program under the StarDBT block discipline
// and records traces with the named strategy. The run stops early when ctx
// is cancelled, returning the partial set alongside ctx.Err(), or once
// maxSteps dynamic instructions have executed (0 = unbounded).
func RecordTraces(ctx context.Context, p *Program, strategy string, c TraceConfig, maxSteps uint64) (*TraceSet, error) {
	s, ok := trace.NewStrategy(strategy, p, c)
	if !ok {
		return nil, &UnknownStrategyError{Name: strategy}
	}
	set, _, err := trace.Record(ctx, cpu.New(p), cfg.StarDBT, s, maxSteps)
	return set, err
}

// UnknownStrategyError reports an unrecognized strategy name.
type UnknownStrategyError struct{ Name string }

func (e *UnknownStrategyError) Error() string {
	return "tea: unknown trace strategy " + e.Name
}

// Build converts a trace set into its TEA (the paper's Algorithm 1).
func Build(set *TraceSet) *Automaton { return core.Build(set) }

// NewReplayer prepares a transition-function cursor over the automaton.
func NewReplayer(a *Automaton, c LookupConfig) *Replayer { return core.NewReplayer(a, c) }

// NewInstrReplayer prepares an instruction-granularity cursor (the
// "instructions" variant of the paper's DFA): feed it every executed PC.
func NewInstrReplayer(a *Automaton, c LookupConfig, p *Program) *core.InstrReplayer {
	return core.NewInstrReplayer(a, c, p)
}

// Encode serializes the automaton. Encoding fails only on an automaton that
// was not produced by Build (states missing from the canonical numbering).
func Encode(a *Automaton) ([]byte, error) { return core.Encode(a) }

// DecodeError describes why Decode rejected a serialized TEA: the byte
// offset, the wire-format field being read, and the reason. Every
// malformed input — truncation, corrupted varints, hostile counts, blocks
// that do not match the program — yields a *DecodeError (via errors.As),
// never a panic.
type DecodeError = core.DecodeError

// Decode reconstructs an automaton serialized by Encode. The program must
// be available so blocks can be re-discovered (the paper's replay setting);
// each decoded block's identity is cross-checked against it.
func Decode(data []byte, p *Program) (*Automaton, error) {
	return core.Decode(data, cfg.NewCache(p, cfg.StarDBT))
}

// Dot renders the automaton as a Graphviz digraph (Figure 3 style).
func Dot(a *Automaton, title string) string { return core.Dot(a, title) }

// Summary renders a human-readable view of the automaton.
func Summary(a *Automaton) string { return core.Summary(a) }

// Replay re-executes the unmodified program under the Pin-like engine with
// the TEA replay tool attached and returns the replay statistics — the
// paper's Table 2 workflow. The run stops early when ctx is cancelled,
// returning the partial stats alongside ctx.Err(), or once maxSteps dynamic
// instructions have executed (0 = unbounded). A non-nil o is attached to
// the replayer: its counters, histograms and event ring fill while the run
// proceeds, and the counter fold is flushed before returning, on a stopped
// run too. A nil o runs dark.
//
// Replaying an automaton against a program it does not describe (a stale
// or foreign TEA) does not fail: the replayer detects impossible
// transitions, falls back to NTE, and counts the events in the returned
// stats' Desyncs/Resyncs fields.
func Replay(ctx context.Context, p *Program, a *Automaton, c LookupConfig, maxSteps uint64, o *Obs) (*ReplayStats, error) {
	tool := teatool.NewReplayTool(a, c)
	tool.Replayer().SetObs(o)
	_, err := pin.New().RunContext(ctx, p, tool, maxSteps)
	tool.Replayer().FlushObs()
	return tool.Stats(), err
}

// Compile freezes the automaton into its flat compiled form. Only the
// Local cache settings of c matter; the compiled path always uses the flat
// open-addressed entry table as its global container.
func Compile(a *Automaton, c LookupConfig) *Compiled { return core.Compile(a, c) }

// NewCompiledReplayer prepares a zero-allocation cursor over a compiled
// automaton; AdvanceBatch consumes whole stream slices per call.
func NewCompiledReplayer(c *Compiled) *CompiledReplayer {
	return core.NewCompiledReplayer(c)
}

// StrideEntry is one fused trace-cycle of a specialized compiled form: a
// steady-state cycle proven through the production transition function,
// with per-traversal Stats deltas the batch kernel adds wholesale
// (DESIGN.md §16).
type StrideEntry = core.StrideEntry

// Specialize compiles the steady-state cycles of a captured stream into a
// fused stride table attached to a copy of c (the input is untouched).
// Every admitted entry is proven by simulation; when the sample shows the
// table would fuse too little of the stream to pay for probing, the result
// carries no table and replays through the unspecialized kernel.
func Specialize(c *Compiled, stream []StreamEdge) *Compiled {
	return core.Specialize(c, stream)
}

// CompiledLayout renders the compiled form's memory-layout report: SoA
// array residency, entry-table load and stride-table occupancy (teaprof
// -layout).
func CompiledLayout(c *Compiled) string { return c.Layout() }

// DecodeStrideTable parses a TEAS stride-table blob. The result is only
// structurally bounded — semantic trust comes from VerifyStrideTable, which
// re-proves every entry against the compiled form it is attached to.
func DecodeStrideTable(data []byte) ([]StrideEntry, error) { return core.DecodeStrideTable(data) }

// VerifyStrideTable attaches a decoded stride table to the automaton's
// compiled form and runs the full compiled rule family over the result —
// in particular C-STRIDE, which re-derives every entry through the
// production admission simulation and rejects any forged field.
func VerifyStrideTable(a *Automaton, c LookupConfig, tab []StrideEntry) *VerifyReport {
	return verify.Compiled(core.Compile(a, c).WithStrideTable(tab))
}

// CaptureStream re-executes the program under the Pin-like engine recording
// its dynamic block stream as replay currency: the edges to feed
// AdvanceBatch or a replay pipeline, plus the unreported trailing
// instruction count (fold it in with ReplayStats.AccountTail).
func CaptureStream(p *Program) ([]StreamEdge, uint64, error) {
	tool := teatool.NewCaptureTool()
	if _, err := pin.New().Run(p, tool, 0); err != nil {
		return nil, 0, err
	}
	return tool.Stream(), tool.Tail(), nil
}

// ReplayCompiled is Replay on the compiled fast path: the automaton is
// frozen into flat arrays and the pintool advances it through the batched
// zero-allocation transition function. Stats semantics are identical to
// Replay with the same Local configuration.
func ReplayCompiled(p *Program, a *Automaton, c LookupConfig) (*ReplayStats, error) {
	tool := teatool.NewCompiledReplayTool(core.Compile(a, c))
	if _, err := pin.New().Run(p, tool, 0); err != nil {
		return tool.Stats(), err
	}
	return tool.Stats(), nil
}

// Pipeline (decoupled online capture→process; DESIGN.md §14).
type (
	// PipelineConfig sizes a capture→process pipeline (workers, chunk
	// edges, ring depth, optional Obs context).
	PipelineConfig = pipeline.Config
	// PipelineMetrics is the pipeline's self-telemetry snapshot
	// (published/drained chunks, backpressure waits, quiet/sequential/
	// handoff chunk split, snapshot recompiles).
	PipelineMetrics = pipeline.Metrics
	// PipelineReplayer is a live replay pipeline: feed edges from any
	// producer, Barrier for the sequential-identical answer.
	PipelineReplayer = pipeline.ReplayPipeline
)

// NewReplayPipeline starts a replay pipeline over a compiled automaton.
// Feeding is single-producer; Close it when done.
func NewReplayPipeline(c *Compiled, pc PipelineConfig) *PipelineReplayer {
	return pipeline.NewReplay(c, pc)
}

// ReplayPipeline is ReplayCompiled with capture decoupled from processing:
// the Pin-like engine's analysis routine only appends edges to sequenced
// chunks while scan workers and a reconciling drain do the automaton work
// concurrently. Stats are identical to ReplayCompiled with
// ConfigGlobalNoLocal; the pipeline's self-telemetry rides along.
func ReplayPipeline(p *Program, a *Automaton, pc PipelineConfig) (*ReplayStats, PipelineMetrics, error) {
	pl := pipeline.NewReplay(core.Compile(a, core.ConfigGlobalNoLocal), pc)
	feed := pipeline.NewReplayFeed(pl)
	_, err := pin.New().Run(p, feed, 0)
	st, cur := pl.Barrier()
	m := pl.Metrics()
	pl.Close()
	st.AccountTail(cur, feed.Tail())
	return &st, m, err
}

// RecordPipeline is RecordOnline with capture decoupled from recording —
// the paper's online use case at DBT speed: the frontend streams edge
// chunks and never waits for TEA maintenance. The final automaton and
// stats are byte-identical to RecordOnline with ConfigGlobalNoLocal.
func RecordPipeline(p *Program, strategy string, tc TraceConfig, pc PipelineConfig) (*Automaton, *ReplayStats, PipelineMetrics, error) {
	s, ok := trace.NewStrategy(strategy, p, tc)
	if !ok {
		return nil, nil, PipelineMetrics{}, &UnknownStrategyError{Name: strategy}
	}
	pl := pipeline.NewRecord(s, pc)
	feed := pipeline.NewRecordFeed(pl)
	_, err := pin.New().Run(p, feed, 0)
	pl.AccountTail(feed.Tail())
	st := pl.Barrier()
	m := pl.Metrics()
	pl.Close()
	return pl.Recorder().Automaton(), &st, m, err
}

// Observability (runtime metrics, event tracing, profiling hooks).
type (
	// Obs is an observability context: a metrics registry, a bounded event
	// ring and the logical edge clock. Attach one with Replayer.SetObs /
	// CompiledReplayer.SetObs, pass it to Replay / RecordOnline, or set it
	// as PipelineConfig.Obs. All hooks are disabled — and free —
	// when no context is attached.
	Obs = obs.Obs
	// ObsEvent is one ring-buffer trace event.
	ObsEvent = obs.Event
	// FlightRecord is one post-mortem flight-recorder artifact: the event
	// suffix that led up to a trip plus a frozen registry snapshot.
	FlightRecord = obs.FlightRecord
)

// NewObs creates an observability context with the full TEA metric set
// registered and the default event-ring capacity.
func NewObs() *Obs { return obs.New() }

// ObsHandler serves the context over HTTP: /metrics (Prometheus text),
// /metrics.json, /debug/events and /debug/pprof/*.
func ObsHandler(o *Obs) http.Handler { return obs.Handler(o) }

// EncodeEvents serializes a drained event slice into the compact binary
// event log that `teadump -events` decodes.
func EncodeEvents(events []ObsEvent) []byte { return obs.EncodeEvents(events) }

// DecodeEvents parses a binary event log produced by EncodeEvents.
func DecodeEvents(data []byte) ([]ObsEvent, error) { return obs.DecodeEvents(data) }

// DecodeFlight parses a flight artifact (the binary form served at
// /debug/flight/<seq>), fully validating the embedded event log.
func DecodeFlight(data []byte) (FlightRecord, error) { return obs.DecodeFlight(data) }

// RecordOnline runs the program under the Pin-like engine while building a
// TEA online with the named strategy — the paper's Table 3 workflow. It
// returns the automaton and the recording run's statistics. ctx and
// maxSteps bound the run as in Replay, which returns the partial automaton
// and stats. A non-nil o is attached to the recorder: sync spans,
// trace-set gauges and the recording replayer's metrics fill while the run
// proceeds, and are flushed before returning. A nil o runs dark.
func RecordOnline(ctx context.Context, p *Program, strategy string, tc TraceConfig, lc LookupConfig, maxSteps uint64, o *Obs) (*Automaton, *ReplayStats, error) {
	s, ok := trace.NewStrategy(strategy, p, tc)
	if !ok {
		return nil, nil, &UnknownStrategyError{Name: strategy}
	}
	tool := teatool.NewRecordTool(s, lc)
	tool.Recorder().SetObs(o)
	_, err := pin.New().RunContext(ctx, p, tool, maxSteps)
	tool.Recorder().Replayer().FlushObs()
	return tool.Automaton(), tool.Stats(), err
}

// ProfileReplay replays the program while collecting a per-TBB-instance
// profile; det may be nil. This is the paper's §2 workflow: accurate
// profile for trace instances without generating trace code.
func ProfileReplay(p *Program, a *Automaton, c LookupConfig, det *PhaseDetector) (*Profile, *ReplayStats, error) {
	tool := teatool.NewProfileTool(a, c, det)
	if _, err := pin.New().Run(p, tool, 0); err != nil {
		return nil, nil, err
	}
	return tool.Profile(), tool.Replayer().Stats(), nil
}

// NewPhaseDetector creates a phase detector (window in transitions,
// exit-ratio threshold; zero values select defaults).
func NewPhaseDetector(window uint64, threshold float64) *PhaseDetector {
	return profile.NewPhaseDetector(window, threshold)
}

// DuplicateTrace returns a new set in which the identified simple-cycle
// trace appears duplicated (Figure 1(d)), plus the duplicated trace.
func DuplicateTrace(s *TraceSet, id int32) (*TraceSet, *Trace, error) {
	return optim.Duplicate(s, trace.ID(id))
}

// ProfileByCopy splits a duplicated trace's profile per copy — the
// specialized counts an unroller consumes (Figure 1(c)).
func ProfileByCopy(p *Profile, dup *Trace) (*optim.CopyProfile, error) {
	return optim.ProfileByCopy(p, dup)
}

// Merge unions trace sets recorded on different runs of the same program
// into one set; entry conflicts keep the larger trace.
func Merge(sets ...*TraceSet) (*TraceSet, error) { return optim.Merge(sets...) }

// Prune returns a new trace set keeping only traces whose heads executed
// at least minEnters times in the profiled run — the consumer side of
// "storing trace shape and profiling information for reuse in future
// executions": the next run loads a smaller TEA with the same hot-code
// coverage.
func Prune(s *TraceSet, p *Profile, minEnters uint64) (*TraceSet, error) {
	return optim.Prune(s, p, minEnters)
}

// CodeBytes returns the code-replication cost of representing the set as
// real trace code (Table 1's DBT column); EncodedSize the TEA cost.
func CodeBytes(s *TraceSet) uint64 { return s.CodeBytes() }

// EncodedSize returns the serialized TEA size in bytes.
func EncodedSize(a *Automaton) uint64 { return core.EncodedSize(a) }

// DefaultSimConfig returns the default timing-simulator model.
func DefaultSimConfig() SimConfig { return ucsim.DefaultConfig() }

// Simulate re-executes the unmodified program on the timing simulator
// while walking the TEA, attributing cycles, cache misses and branch
// mispredictions to each trace — the paper's cross-system statistics
// use case (§1).
func Simulate(p *Program, a *Automaton, lc LookupConfig, sc SimConfig) (*SimResult, error) {
	return ucsim.SimulateTEA(p, a, lc, sc)
}

// RunDBT executes the program under the StarDBT-like translator, recording
// traces — the baseline system of the paper's evaluation. It returns the
// recorded set, the trace code-replication bytes, and the coverage.
func RunDBT(p *Program, strategy string, c TraceConfig) (*TraceSet, uint64, float64, error) {
	res, err := dbt.New().Run(p, strategy, c, 0)
	if err != nil {
		return nil, 0, 0, err
	}
	return res.Set, res.TraceBytes, res.Coverage(), nil
}

// Verification (static analysis over the three TEA representations).
type (
	// VerifyReport is an ordered, diffable collection of rule findings.
	VerifyReport = verify.Report
)

// Verify statically checks an automaton — and its compiled form — against
// the paper's invariants without replaying: determinism (Algorithm 1),
// state/TBB bijection, trace linearity, entry-table soundness,
// reachability, NTE-soundness, CFG consistency against the program image
// (pass nil to skip the image rules), plus the full compiled-form audit
// including a structural-equivalence proof between Compile(a, c) and a.
func Verify(a *Automaton, p *Program, c LookupConfig) *VerifyReport {
	var cache *cfg.Cache
	if p != nil {
		cache = cfg.NewCache(p, cfg.StarDBT)
	}
	r := verify.Automaton(a, cache)
	r.Merge(verify.Compiled(core.Compile(a, c)))
	return r
}

// VerifyImage audits a serialized TEA end-to-end: decode against the
// program, then run every automaton and compiled rule over the result. A
// decode rejection surfaces as a W-DEC finding carrying the byte offset.
func VerifyImage(data []byte, p *Program, c LookupConfig) *VerifyReport {
	return verify.Image(data, cfg.NewCache(p, cfg.StarDBT), c)
}

// Serving (long-running replay service; see DESIGN.md §13 for the failure
// semantics these types implement).
type (
	// Server hosts a fleet of compiled TEA images and serves concurrent
	// replay sessions over the length-prefixed binary wire protocol, with
	// per-tenant quotas, backpressure, panic isolation and a per-image
	// circuit breaker gated on re-verification.
	Server = serve.Server
	// ServeConfig configures a Server (quotas, breaker, timeouts).
	ServeConfig = serve.Config
	// ServeQuota bounds one tenant's concurrency, steps and bytes.
	ServeQuota = serve.Quota
	// ServeError is the structured, wire-stable error every session
	// failure surfaces as; its Code names the failure class and
	// Temporary() marks the retryable ones.
	ServeError = serve.Error
	// ServeClient is the session client: idempotent resume over
	// reconnects with jittered exponential backoff. One per session;
	// not safe for concurrent use.
	ServeClient = client.Client
	// ServeClientConfig configures a ServeClient (tenant, dialer,
	// retry budget, per-operation timeout).
	ServeClientConfig = client.Config
)

// NewServer creates a replay server; Host images on it, then Serve a
// listener. Shutdown drains attached sessions before returning.
func NewServer(c ServeConfig) *Server { return serve.NewServer(c) }

// DialServe creates a session client that dials addr over TCP.
func DialServe(addr string, cfg ServeClientConfig) (*ServeClient, error) {
	return client.Dial(addr, cfg)
}
