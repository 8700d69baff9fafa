package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

// testProgram builds the seeded synthetic program the identity tests run.
func testProgram(t testing.TB, seed int64) *isa.Program {
	t.Helper()
	return workloadProgram(t, "181.mcf", seed)
}

// workloadProgram builds the named workload at a small fixed scale.
func workloadProgram(t testing.TB, name string, seed int64) *isa.Program {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	spec.Seed = seed
	spec.WorkScale = 8
	return workload.Program(spec)
}

// captureEdges records p's full dynamic block-edge stream (tryCapture),
// the record-mode currency.
func captureEdges(t testing.TB, p *isa.Program) ([]cfg.Edge, []uint64) {
	t.Helper()
	edges, instrs, err := tryCapture(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) < 50 {
		t.Fatalf("edge stream too short: %d", len(edges))
	}
	return edges, instrs
}

// labelStream converts a cfg-edge stream into replay currency, dropping
// the nil-To halt edge (its instructions are the tail).
func labelStream(edges []cfg.Edge, instrs []uint64) ([]core.Edge, uint64) {
	var out []core.Edge
	var tail uint64
	for i, e := range edges {
		if e.To == nil {
			tail += instrs[i]
			continue
		}
		out = append(out, core.Edge{Label: e.To.Head, Instrs: instrs[i]})
	}
	return out, tail
}

// perturb corrupts every n-th label so replays desync and resync.
func perturb(stream []core.Edge, n int) []core.Edge {
	out := append([]core.Edge(nil), stream...)
	for i := n; i < len(out); i += n {
		out[i].Label = 0xdead0000 + uint64(i)
	}
	return out
}

// buildAutomaton records a trace set on p and builds its TEA.
func buildAutomaton(t testing.TB, p *isa.Program) *core.Automaton {
	t.Helper()
	s, ok := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 8})
	if !ok {
		t.Fatal("mret strategy")
	}
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return core.Build(set)
}

func registryJSON(t testing.TB, o *obs.Obs) string {
	t.Helper()
	var b bytes.Buffer
	if err := o.Reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// registryComparable renders the registry JSON for identity comparison
// against a sequential reference. tea_pipeline_* series are dropped — the
// pipeline's self-telemetry exists only on the pipeline side by design,
// while everything else stays under the byte-identical contract — and,
// when zeroNs, wall-clock span nanosecond counters are zeroed (record-mode
// syncs time themselves; elapsed nanoseconds are the one legitimately
// nondeterministic metric).
func registryComparable(t testing.TB, o *obs.Obs, zeroNs bool) string {
	t.Helper()
	var metrics []map[string]any
	raw := registryJSON(t, o)
	if err := json.Unmarshal([]byte(raw), &metrics); err != nil {
		t.Fatalf("registry JSON: %v\n%s", err, raw)
	}
	kept := metrics[:0]
	for _, m := range metrics {
		name, _ := m["name"].(string)
		if strings.HasPrefix(name, "tea_pipeline_") {
			continue
		}
		if zeroNs && strings.HasSuffix(name, "_ns_total") {
			m["value"] = 0
		}
		kept = append(kept, m)
	}
	out, err := json.Marshal(kept)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// registryDeterministic is registryComparable with nanosecond zeroing on.
func registryDeterministic(t testing.TB, o *obs.Obs) string {
	return registryComparable(t, o, true)
}

// replayFixture records p's automaton, compiles it cache-less and captures
// its label stream.
func replayFixture(t *testing.T, p *isa.Program) (*core.Compiled, []core.Edge) {
	t.Helper()
	a := buildAutomaton(t, p)
	edges, instrs := captureEdges(t, p)
	stream, _ := labelStream(edges, instrs)
	return core.Compile(a, core.ConfigGlobalNoLocal), stream
}

// TestReplayPipelineReset: a pipeline reused across passes produces the
// same answer every pass, with no buffer state bleeding through.
func TestReplayPipelineReset(t *testing.T) {
	p := testProgram(t, 4)
	a := buildAutomaton(t, p)
	edges, instrs := captureEdges(t, p)
	stream, _ := labelStream(edges, instrs)
	c := core.Compile(a, core.ConfigGlobalNoLocal)
	wantSt, wantCur := core.SequentialReplay(c, stream, nil)

	pl := NewReplay(c, Config{Workers: 2, ChunkEdges: 512, Depth: 8})
	defer pl.Close()
	for pass := 0; pass < 3; pass++ {
		feedAll(pl, stream)
		gotSt, gotCur := pl.Barrier()
		if gotSt != wantSt || gotCur != wantCur {
			t.Fatalf("pass %d diverges:\nseq  %+v cur=%d\npipe %+v cur=%d",
				pass, wantSt, wantCur, gotSt, gotCur)
		}
		pl.Reset()
	}
}

// TestReplayPipelineCloseAbandons is how a caller cancels a replay: it stops
// feeding and calls Close without a Barrier. Close must return after
// draining only what was already published — at most Depth chunks were in
// flight — and every worker and drain goroutine must exit.
func TestReplayPipelineCloseAbandons(t *testing.T) {
	p := testProgram(t, 13)
	a := buildAutomaton(t, p)
	edges, instrs := captureEdges(t, p)
	base, _ := labelStream(edges, instrs)
	c := core.Compile(a, core.ConfigGlobalNoLocal)
	var long []core.Edge
	for len(long) < 1<<18 {
		long = append(long, base...)
	}
	fed := len(long)/3 + 17 // leaves a partial chunk open at Close

	before := runtime.NumGoroutine()
	cfg := Config{Workers: 4, ChunkEdges: 512, Depth: 8}
	pl := NewReplay(c, cfg)
	pl.Feed(long[:fed])
	closed := make(chan struct{})
	go func() {
		pl.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	m := pl.Metrics()
	if want := uint64((fed + cfg.ChunkEdges - 1) / cfg.ChunkEdges); m.Published != want || m.Drained != want {
		t.Fatalf("published %d / drained %d chunks, want %d: Close must drain exactly what was fed", m.Published, m.Drained, want)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewReplay", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecordPipelineQuietPathEngages: on a saturated second pass with a
// small chunk size, at least one chunk must be accepted on the quiet path —
// otherwise the scaling mechanism is dead code and the test suite would
// never notice.
func TestRecordPipelineQuietPathEngages(t *testing.T) {
	p := testProgram(t, 5)
	edges, instrs := captureEdges(t, p)
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 8})
	pl := NewRecord(s, Config{Workers: 2, ChunkEdges: 256, Depth: 8})
	defer pl.Close()
	for pass := 0; pass < 4; pass++ {
		pl.Feed(edges, instrs)
	}
	pl.Barrier()
	if m := pl.Metrics(); m.QuietChunks == 0 {
		t.Fatalf("no quiet chunks on a saturated stream: %+v", m)
	}
}

// TestRecordPipelineFallbackStrategy: a strategy without the QuietObserver
// extension (ctt) degrades to sequential chunks with identical results.
func TestRecordPipelineFallbackStrategy(t *testing.T) {
	p := testProgram(t, 7)
	edges, instrs := captureEdges(t, p)

	ref, _ := trace.NewStrategy("ctt", p, trace.Config{HotThreshold: 8})
	rrec := core.NewRecorder(ref, core.ConfigGlobalNoLocal)
	rrec.ObserveBatch(edges, instrs)
	wantAuto, err := core.Encode(rrec.Automaton())
	if err != nil {
		t.Fatal(err)
	}
	wantSt := *rrec.Replayer().Stats()

	s, _ := trace.NewStrategy("ctt", p, trace.Config{HotThreshold: 8})
	pl := NewRecord(s, Config{Workers: 2, ChunkEdges: 256, Depth: 8})
	for k := range edges {
		pl.FeedEdge(edges[k], instrs[k])
	}
	st := pl.Barrier()
	m := pl.Metrics()
	pl.Close()
	gotAuto, err := core.Encode(pl.Recorder().Automaton())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotAuto, wantAuto) || st != wantSt {
		t.Fatalf("ctt fallback diverges:\nseq  %+v\npipe %+v", wantSt, st)
	}
	if m.QuietChunks != 0 || m.Handoffs != 0 {
		t.Fatalf("ctt must run fully sequential: %+v", m)
	}
	if m.SeqChunks != m.Drained {
		t.Fatalf("ctt: %d sequential chunks of %d drained", m.SeqChunks, m.Drained)
	}
}

// TestReplayPipelineFaultInjection: mid-stream desyncs on the replay side
// propagate the same Desyncs/Resyncs counts as the sequential replayer.
func TestReplayPipelineFaultInjection(t *testing.T) {
	p := testProgram(t, 9)
	a := buildAutomaton(t, p)
	edges, instrs := captureEdges(t, p)
	base, _ := labelStream(edges, instrs)
	stream := perturb(base, 13)
	c := core.Compile(a, core.ConfigGlobalNoLocal)

	wantSt, _ := core.SequentialReplay(c, stream, nil)
	if wantSt.Desyncs == 0 {
		t.Fatal("perturbation produced no desyncs")
	}
	pl := NewReplay(c, Config{Workers: 4, ChunkEdges: 100, Depth: 4})
	feedAll(pl, stream)
	gotSt, _ := pl.Barrier()
	pl.Close()
	if gotSt.Desyncs != wantSt.Desyncs || gotSt.Resyncs != wantSt.Resyncs {
		t.Fatalf("desync accounting diverges: seq %d/%d pipe %d/%d",
			wantSt.Desyncs, wantSt.Resyncs, gotSt.Desyncs, gotSt.Resyncs)
	}
}

// TestPipelineBackpressure: a tiny ring forces the producer through the
// high-watermark path; it must wait-and-count, never deadlock or drop.
func TestPipelineBackpressure(t *testing.T) {
	p := testProgram(t, 10)
	a := buildAutomaton(t, p)
	edges, instrs := captureEdges(t, p)
	stream, _ := labelStream(edges, instrs)
	c := core.Compile(a, core.ConfigGlobalNoLocal)

	wantSt, wantCur := core.SequentialReplay(c, stream, nil)
	pl := NewReplay(c, Config{Workers: 1, ChunkEdges: 8, Depth: 4})
	feedAll(pl, stream)
	gotSt, gotCur := pl.Barrier()
	m := pl.Metrics()
	pl.Close()
	if gotSt != wantSt || gotCur != wantCur {
		t.Fatal("backpressured replay diverges from sequential")
	}
	if m.Published != m.Drained || m.Published == 0 {
		t.Fatalf("chunk accounting broken: %+v", m)
	}
	t.Logf("depth-4 run: %d chunks, %d backpressure waits", m.Published, m.BackpressureWaits)
}

// TestReplayPipelineZeroAllocSteadyState: after a warm pass, feeding a full
// stream through the pipeline allocates nothing on the producer path — the
// chunk buffers, scan results and reconciliation scratch all recycle.
func TestReplayPipelineZeroAllocSteadyState(t *testing.T) {
	p := testProgram(t, 11)
	a := buildAutomaton(t, p)
	edges, instrs := captureEdges(t, p)
	stream, _ := labelStream(edges, instrs)
	c := core.Compile(a, core.ConfigGlobalNoLocal)

	pl := NewReplay(c, Config{Workers: 2, ChunkEdges: 1024, Depth: 8})
	defer pl.Close()
	pass := func() {
		pl.Feed(stream)
		pl.Barrier()
		pl.Reset()
	}
	pass() // warm: chunk payloads, SpecResult slices and junction scratch grow once
	pass()
	if allocs := testing.AllocsPerRun(3, pass); allocs > 0 {
		t.Fatalf("steady-state pass allocates %.1f times", allocs)
	}
}

// pipelineSeries collects every tea_pipeline_* series from a registry
// scrape into "name" or "name{value}" keys.
func pipelineSeries(t testing.TB, o *obs.Obs) map[string]uint64 {
	t.Helper()
	var metrics []struct {
		Name       string  `json:"name"`
		LabelValue string  `json:"label_value"`
		Value      *uint64 `json:"value"`
	}
	raw := registryJSON(t, o)
	if err := json.Unmarshal([]byte(raw), &metrics); err != nil {
		t.Fatalf("registry JSON: %v\n%s", err, raw)
	}
	got := map[string]uint64{}
	for _, m := range metrics {
		if !strings.HasPrefix(m.Name, "tea_pipeline_") || m.Value == nil {
			continue
		}
		key := m.Name
		if m.LabelValue != "" {
			key += "{" + m.LabelValue + "}"
		}
		got[key] = *m.Value
	}
	return got
}

// TestPipelineMetricsRegistryParity: a registry scrape delta-folds the
// pipe's atomics, so every tea_pipeline_* series equals the Metrics()
// snapshot, the per-worker chunk series sum to the drained count, and a
// second scrape does not double-fold.
func TestPipelineMetricsRegistryParity(t *testing.T) {
	p := testProgram(t, 13)
	a := buildAutomaton(t, p)
	edges, instrs := captureEdges(t, p)
	stream, _ := labelStream(edges, instrs)
	c := core.Compile(a, core.ConfigGlobalNoLocal)

	o := obs.NewWith(obs.NewRegistry(), 1<<12)
	pl := NewReplay(c, Config{Workers: 3, ChunkEdges: 128, Depth: 8, Obs: o})
	defer pl.Close()
	feedAll(pl, stream)
	pl.Barrier()
	m := pl.Metrics()

	check := func(got map[string]uint64) {
		t.Helper()
		want := map[string]uint64{
			"tea_pipeline_published_chunks_total":   m.Published,
			"tea_pipeline_drained_chunks_total":     m.Drained,
			"tea_pipeline_backpressure_waits_total": m.BackpressureWaits,
			"tea_pipeline_quiet_chunks_total":       m.QuietChunks,
			"tea_pipeline_seq_chunks_total":         m.SeqChunks,
			"tea_pipeline_handoffs_total":           m.Handoffs,
			"tea_pipeline_recompiles_total":         m.Recompiles,
		}
		for name, w := range want {
			if got[name] != w {
				t.Fatalf("%s = %d, want %d (snapshot %+v)", name, got[name], w, m)
			}
		}
		var workerSum uint64
		for w := 0; w < 3; w++ {
			workerSum += got["tea_pipeline_worker_chunks_total{"+strconv.Itoa(w)+"}"]
		}
		if workerSum != m.Drained {
			t.Fatalf("worker chunk series sum %d, want drained %d", workerSum, m.Drained)
		}
	}
	check(pipelineSeries(t, o))
	check(pipelineSeries(t, o)) // second scrape: deltas fold once, not twice
}
