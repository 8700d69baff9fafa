package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/faultinject"
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

// captureEdges records the full dynamic block-edge stream of p — every
// cfg.Edge including the final nil-To halt edge — with StarDBT-counted
// instruction deltas. This is the record-mode currency.
func captureEdges(t testing.TB, p *isa.Program) ([]cfg.Edge, []uint64) {
	t.Helper()
	m := cpu.New(p)
	r := cfg.NewRunner(m, cfg.StarDBT)
	var edges []cfg.Edge
	var instrs []uint64
	var mark cpu.StepMark
	for {
		e, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		edges = append(edges, e)
		instrs = append(instrs, mark.Delta(m.Steps()))
		if e.To == nil {
			break
		}
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

// feedAll pushes a label stream through a replay pipeline in uneven bursts
// so partial chunks and Flush boundaries get exercised too.
func feedAll(p *ReplayPipeline, stream []core.Edge) {
	for i := 0; i < len(stream); {
		n := 1 + (i*7)%97
		if i+n > len(stream) {
			n = len(stream) - i
		}
		p.Feed(stream[i : i+n])
		i += n
	}
}

// replayCase is one input of the replay identity tables: a compiled image
// and the stream replayed against it.
type replayCase struct {
	name   string
	c      *core.Compiled
	stream []core.Edge
}

// replayCases builds the identity-table inputs: on the seeded test program,
// clean and desyncing streams (periodic and desync-heavy perturbation), an
// empty stream and a stream shorter than the largest worker count; on the
// 901.steady loop nest, a Specialize'd image whose stride tables fire.
func replayCases(t *testing.T, seed int64, period int) []replayCase {
	t.Helper()
	c, base := replayFixture(t, testProgram(t, seed))
	sc, steady := replayFixture(t, workloadProgram(t, "901.steady", seed))
	spec := core.Specialize(sc, steady)
	// Not vacuous: a compiled replayer over the same image must consume
	// edges through fused stride-table cycles.
	r := core.NewCompiledReplayer(spec)
	r.AdvanceBatch(steady)
	if r.StrideEdges() == 0 {
		t.Fatal("Specialize admitted no stride cycle that fires on the stream")
	}
	return []replayCase{
		{"clean", c, base},
		{"desyncs", c, perturb(base, period)},
		{"desync-heavy", c, perturb(base, 2)},
		{"empty", c, nil},
		{"short", c, base[:3]},
		{"specialized", spec, steady},
		{"specialized-desyncs", spec, perturb(steady, period)},
	}
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

// TestReplayPipelineMatchesSequential: Stats, final cursor and desync flag
// equal SequentialReplay for a grid of worker counts, chunk sizes and ring
// depths, on every replayCases input plus a faultinject-perturbed stream.
// The grid's pipelines run concurrently over one shared Compiled, so under
// -race the test also proves the image is safely shared read-only.
func TestReplayPipelineMatchesSequential(t *testing.T) {
	cases := replayCases(t, 1, 5)
	cases = append(cases, replayCase{"faultinject", cases[0].c, faultStream(cases[0].stream, 7)})

	grid := []Config{
		{Workers: 1, ChunkEdges: 64, Depth: 4},
		{Workers: 2, ChunkEdges: 256, Depth: 8},
		{Workers: 4, ChunkEdges: 1000, Depth: 32},
		{Workers: 3, ChunkEdges: 1 << 14, Depth: 4},
	}
	type result struct {
		st  core.Stats
		cur core.StateID
		m   Metrics
	}
	for _, sc := range cases {
		wantSt, wantCur := core.SequentialReplay(sc.c, sc.stream, nil)
		got := make([]result, len(grid))
		var wg sync.WaitGroup
		for i, cfgCase := range grid {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pl := NewReplay(sc.c, cfgCase)
				feedAll(pl, sc.stream)
				got[i].st, got[i].cur = pl.Barrier()
				got[i].m = pl.Metrics()
				pl.Close()
			}()
		}
		wg.Wait()
		for i, cfgCase := range grid {
			if got[i].st != wantSt || got[i].cur != wantCur {
				t.Fatalf("%s %+v: diverges:\nseq  %+v cur=%d\npipe %+v cur=%d",
					sc.name, cfgCase, wantSt, wantCur, got[i].st, got[i].cur)
			}
			if m := got[i].m; m.Published != m.Drained {
				t.Fatalf("%s %+v: published %d != drained %d", sc.name, cfgCase, m.Published, m.Drained)
			}
		}
	}
}

// faultStream applies the fault injector's seeded drop/duplicate/swap mix
// to a stream.
func faultStream(stream []core.Edge, seed int64) []core.Edge {
	events := make([]faultinject.BlockEvent, len(stream))
	for i, e := range stream {
		events[i] = faultinject.BlockEvent(e)
	}
	events = faultinject.New(seed).PerturbStream(events)
	out := make([]core.Edge, len(events))
	for i, e := range events {
		out[i] = core.Edge(e)
	}
	return out
}

// TestReplayPipelineObsIdentity: with observability attached, the folded
// registry, ingested event stream, Stats and cursor are byte-identical to
// SequentialReplay with the same context, on every replayCases input.
func TestReplayPipelineObsIdentity(t *testing.T) {
	for _, sc := range replayCases(t, 2, 4) {
		seqO := obs.NewWith(obs.NewRegistry(), 1<<16)
		seedLabelSeries(seqO)
		wantSt, wantCur := core.SequentialReplay(sc.c, sc.stream, seqO)
		wantEvents, _ := seqO.Tracer.Snapshot()
		wantJSON := registryComparable(t, seqO, false)

		for _, workers := range []int{1, 2, 4} {
			o := obs.NewWith(obs.NewRegistry(), 1<<16)
			seedLabelSeries(o)
			pl := NewReplay(sc.c, Config{Workers: workers, ChunkEdges: 300, Depth: 8, Obs: o})
			feedAll(pl, sc.stream)
			gotSt, gotCur := pl.Barrier()
			pl.Close()
			if gotSt != wantSt || gotCur != wantCur {
				t.Fatalf("%s w=%d: stats diverge:\nseq  %+v cur=%d\npipe %+v cur=%d",
					sc.name, workers, wantSt, wantCur, gotSt, gotCur)
			}
			if got := registryComparable(t, o, false); got != wantJSON {
				t.Fatalf("%s w=%d: registry JSON diverges:\nseq  %s\npipe %s", sc.name, workers, wantJSON, got)
			}
			gotEvents, _ := o.Tracer.Snapshot()
			if len(gotEvents) != len(wantEvents) {
				t.Fatalf("%s w=%d: %d events, want %d", sc.name, workers, len(gotEvents), len(wantEvents))
			}
			for i := range wantEvents {
				if gotEvents[i] != wantEvents[i] {
					t.Fatalf("%s w=%d: event %d differs:\n%+v\n%+v",
						sc.name, workers, i, gotEvents[i], wantEvents[i])
				}
			}
		}
	}
}

// seedLabelSeries registers identical labeled vec series on a registry, so
// the identity tests prove folded metrics stay byte-identical to sequential
// with label dimensions enabled (not just on the plain-metric subset).
func seedLabelSeries(o *obs.Obs) {
	v := o.Reg.CounterVec("tea_test_tenant_edges_total", "identity-test labeled series", "tenant")
	v.With("alpha").Add(3)
	v.With("beta").Add(5)
	g := o.Reg.GaugeVec("tea_test_image_gen", "identity-test labeled gauge", "image")
	g.With("img").Set(2)
}

// TestQuickReplayPipelineIdentity is the property test: random worker
// counts, chunk sizes, depths and perturbation periods never break the
// sequential equivalence.
func TestQuickReplayPipelineIdentity(t *testing.T) {
	p := testProgram(t, 3)
	a := buildAutomaton(t, p)
	edges, instrs := captureEdges(t, p)
	base, _ := labelStream(edges, instrs)
	c := core.Compile(a, core.ConfigGlobalNoLocal)

	f := func(wBits, chunkBits, depthBits, perturbBits uint8) bool {
		workers := 1 + int(wBits%5)
		chunk := 1 + int(chunkBits)*11
		depth := 4 << (depthBits % 4)
		stream := base
		if n := int(perturbBits % 8); n >= 2 {
			stream = perturb(base, n*3)
		}
		wantSt, wantCur := core.SequentialReplay(c, stream, nil)
		pl := NewReplay(c, Config{Workers: workers, ChunkEdges: chunk, Depth: depth})
		feedAll(pl, stream)
		gotSt, gotCur := pl.Barrier()
		pl.Close()
		if gotSt != wantSt || gotCur != wantCur {
			t.Logf("w=%d chunk=%d depth=%d: diverges", workers, chunk, depth)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
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

// recordReference replays the full edge stream through a sequential
// recorder `passes` times and returns its encoded automaton, stats and
// registry JSON (when o is non-nil).
func recordReference(t testing.TB, p *isa.Program, edges []cfg.Edge, instrs []uint64, passes int, o *obs.Obs) ([]byte, core.Stats, string) {
	t.Helper()
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 8})
	rec := core.NewRecorder(s, core.ConfigGlobalNoLocal)
	if o != nil {
		rec.SetObs(o)
	}
	for i := 0; i < passes; i++ {
		rec.ObserveBatch(edges, instrs)
	}
	rec.Replayer().AccountOnly(7)
	if o != nil {
		rec.Replayer().FlushObs()
	}
	data, err := core.Encode(rec.Automaton())
	if err != nil {
		t.Fatal(err)
	}
	js := ""
	if o != nil {
		js = registryDeterministic(t, o)
	}
	return data, *rec.Replayer().Stats(), js
}

// runRecordPipeline feeds the same stream through a record pipeline and
// returns the matching triple.
func runRecordPipeline(t testing.TB, p *isa.Program, edges []cfg.Edge, instrs []uint64, passes int, c Config) ([]byte, core.Stats, string, Metrics) {
	t.Helper()
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 8})
	pl := NewRecord(s, c)
	for i := 0; i < passes; i++ {
		for k := range edges {
			pl.FeedEdge(edges[k], instrs[k])
		}
	}
	pl.AccountTail(7)
	st := pl.Barrier()
	m := pl.Metrics()
	pl.Close()
	data, err := core.Encode(pl.Recorder().Automaton())
	if err != nil {
		t.Fatal(err)
	}
	js := ""
	if c.Obs != nil {
		js = registryDeterministic(t, c.Obs)
	}
	return data, st, js, m
}

// TestRecordPipelineMatchesSequential: the final automaton bytes and Stats
// equal a sequential recorder's across worker counts and chunk sizes. Two
// passes over the stream drive the trace set to saturation so the second
// pass exercises the quiet path against a compiled snapshot.
func TestRecordPipelineMatchesSequential(t *testing.T) {
	p := testProgram(t, 5)
	edges, instrs := captureEdges(t, p)
	wantAuto, wantSt, _ := recordReference(t, p, edges, instrs, 2, nil)

	for _, cfgCase := range []Config{
		{Workers: 1, ChunkEdges: 128, Depth: 4},
		{Workers: 2, ChunkEdges: 512, Depth: 8},
		{Workers: 4, ChunkEdges: 2048, Depth: 16},
	} {
		gotAuto, gotSt, _, m := runRecordPipeline(t, p, edges, instrs, 2, cfgCase)
		if !bytes.Equal(gotAuto, wantAuto) {
			t.Fatalf("%+v: automaton bytes diverge (%d vs %d bytes)", cfgCase, len(gotAuto), len(wantAuto))
		}
		if gotSt != wantSt {
			t.Fatalf("%+v: stats diverge:\nseq  %+v\npipe %+v", cfgCase, wantSt, gotSt)
		}
		if m.Published != m.Drained {
			t.Fatalf("%+v: published %d != drained %d", cfgCase, m.Published, m.Drained)
		}
		t.Logf("%+v: quiet=%d seq=%d handoffs=%d recompiles=%d",
			cfgCase, m.QuietChunks, m.SeqChunks, m.Handoffs, m.Recompiles)
	}
}

// TestRecordPipelineQuietPathEngages: on a saturated second pass with a
// small chunk size, at least one chunk must be accepted on the quiet path —
// otherwise the scaling mechanism is dead code and the test suite would
// never notice.
func TestRecordPipelineQuietPathEngages(t *testing.T) {
	p := testProgram(t, 5)
	edges, instrs := captureEdges(t, p)
	_, _, _, m := runRecordPipeline(t, p, edges, instrs, 4, Config{Workers: 2, ChunkEdges: 256, Depth: 8})
	if m.QuietChunks == 0 {
		t.Fatalf("no quiet chunks on a saturated stream: %+v", m)
	}
}

// TestRecordPipelineObsIdentity: with observability attached, the full
// registry JSON — counters, probe-depth histograms, sync spans — and the
// event ring equal the sequential recorder's, at 1, 2 and 4 workers, at the
// fixed chunk size that drives chunks onto the quiet path and at a random
// one, on the clean stream and on a spliced one that desyncs and resyncs.
func TestRecordPipelineObsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, in := range []struct {
		name   string
		seed   int64
		splice bool
	}{{"clean", 6, false}, {"spliced", 8, true}} {
		p := testProgram(t, in.seed)
		edges, instrs := captureEdges(t, p)
		if in.splice {
			cut0, cut1 := len(edges)/3, len(edges)/3+len(edges)/4
			edges = append(append([]cfg.Edge(nil), edges[:cut0]...), edges[cut1:]...)
			instrs = append(append([]uint64(nil), instrs[:cut0]...), instrs[cut1:]...)
		}
		refO := obs.NewWith(obs.NewRegistry(), 1<<16)
		wantAuto, wantSt, wantJSON := recordReference(t, p, edges, instrs, 3, refO)
		wantEvents := ringEvents(t, refO)
		if in.splice && (wantSt.Desyncs == 0 || wantSt.Resyncs == 0) {
			t.Fatalf("spliced stream never desyncs and resyncs: %+v", wantSt)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, chunk := range []int{128, 1 + rng.Intn(2048)} {
				name := fmt.Sprintf("%s w=%d chunk=%d", in.name, workers, chunk)
				o := obs.NewWith(obs.NewRegistry(), 1<<16)
				gotAuto, gotSt, gotJSON, m := runRecordPipeline(t, p, edges, instrs, 3,
					Config{Workers: workers, ChunkEdges: chunk, Depth: 8, Obs: o})
				if !bytes.Equal(gotAuto, wantAuto) {
					t.Fatalf("%s: automaton bytes diverge", name)
				}
				if gotSt != wantSt {
					t.Fatalf("%s: stats diverge:\nseq  %+v\npipe %+v", name, wantSt, gotSt)
				}
				if gotJSON != wantJSON {
					t.Fatalf("%s: registry JSON diverges:\nseq  %s\npipe %s", name, wantJSON, gotJSON)
				}
				gotEvents := ringEvents(t, o)
				if len(gotEvents) != len(wantEvents) {
					t.Fatalf("%s: %d events, want %d", name, len(gotEvents), len(wantEvents))
				}
				for i := range wantEvents {
					if gotEvents[i] != wantEvents[i] {
						t.Fatalf("%s: event %d differs:\npipe %+v\nseq  %+v", name, i, gotEvents[i], wantEvents[i])
					}
				}
				if chunk == 128 && m.QuietChunks == 0 {
					t.Fatalf("%s: no quiet chunks; the obs quiet path went unexercised: %+v", name, m)
				}
			}
		}
	}
}

// ringEvents snapshots the event ring, failing if it dropped any event (an
// identity check over a truncated ring would compare only suffixes).
func ringEvents(t *testing.T, o *obs.Obs) []obs.Event {
	t.Helper()
	evs, dropped := o.Tracer.Snapshot()
	if dropped != 0 {
		t.Fatalf("event ring dropped %d events; grow its capacity", dropped)
	}
	return evs
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

// TestRecordPipelineFaultInjection splices the stream mid-way (dropping a
// window of edges) so the recorder hits implausible transitions: the
// graceful-degradation accounting — Desyncs and Resyncs — must match the
// sequential recorder exactly, as must everything else.
func TestRecordPipelineFaultInjection(t *testing.T) {
	p := testProgram(t, 8)
	edges, instrs := captureEdges(t, p)
	cut0, cut1 := len(edges)/3, len(edges)/3+len(edges)/4
	sedges := append(append([]cfg.Edge(nil), edges[:cut0]...), edges[cut1:]...)
	sinstrs := append(append([]uint64(nil), instrs[:cut0]...), instrs[cut1:]...)

	wantAuto, wantSt, _ := recordReference(t, p, sedges, sinstrs, 2, nil)
	gotAuto, gotSt, _, _ := runRecordPipeline(t, p, sedges, sinstrs, 2,
		Config{Workers: 3, ChunkEdges: 200, Depth: 8})
	if !bytes.Equal(gotAuto, wantAuto) {
		t.Fatal("spliced stream: automaton bytes diverge")
	}
	if gotSt != wantSt {
		t.Fatalf("spliced stream: stats diverge:\nseq  %+v\npipe %+v", wantSt, gotSt)
	}
	if wantSt.Desyncs == 0 {
		t.Fatal("splice produced no desyncs; fault injection is not exercising degradation")
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
