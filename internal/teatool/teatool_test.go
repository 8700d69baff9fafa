package teatool

import (
	"reflect"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/dbt"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

// recordInDBT is the paper's cross-environment flow, first half: record
// traces in the DBT and serialize the TEA.
func recordInDBT(t *testing.T, p *isa.Program, strategy string, c trace.Config) []byte {
	t.Helper()
	res, err := dbt.New().Run(p, strategy, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() == 0 {
		t.Fatal("DBT recorded no traces")
	}
	data, err := core.Encode(core.Build(res.Set))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCrossEnvironmentReplay(t *testing.T) {
	// The headline use-case: build traces in one system (StarDBT), replay
	// them in another (Pin) on the unmodified executable.
	p := progs.Figure2(60, 300)
	data := recordInDBT(t, p, "mret", trace.Config{HotThreshold: 50})

	a, err := core.Decode(data, cfg.NewCache(p, cfg.StarDBT))
	if err != nil {
		t.Fatal(err)
	}
	tool := NewReplayTool(a, core.ConfigGlobalLocal)
	res, err := pin.New().Run(p, tool, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := tool.Stats()
	if st.Instrs != res.PinSteps {
		t.Errorf("tool accounted %d instrs, engine ran %d", st.Instrs, res.PinSteps)
	}
	if st.Coverage() < 0.8 {
		t.Errorf("replay coverage = %.3f", st.Coverage())
	}
	if st.TraceEnters == 0 || st.InTraceHits == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCrossEnvironmentWithRepAndCpuid(t *testing.T) {
	// §4.1: REP/CPUID blocks split under Pin but not under StarDBT; edge
	// instrumentation must still map every StarDBT trace block.
	p := progs.RepDemo(200)
	data := recordInDBT(t, p, "mret", trace.Config{HotThreshold: 30})
	a, err := core.Decode(data, cfg.NewCache(p, cfg.StarDBT))
	if err != nil {
		t.Fatal(err)
	}
	tool := NewReplayTool(a, core.ConfigGlobalLocal)
	if _, err := pin.New().Run(p, tool, 0); err != nil {
		t.Fatal(err)
	}
	if tool.Stats().Coverage() < 0.5 {
		t.Errorf("coverage = %.3f; REP splits broke the mapping", tool.Stats().Coverage())
	}
}

func TestRecordToolOnline(t *testing.T) {
	p := progs.Figure2(60, 300)
	strat, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 50})
	tool := NewRecordTool(strat, core.ConfigGlobalLocal)
	res, err := pin.New().Run(p, tool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tool.Recorder().Set().Len() == 0 {
		t.Fatal("online recording produced no traces")
	}
	if err := tool.Automaton().Check(); err != nil {
		t.Fatal(err)
	}
	st := tool.Stats()
	if st.Instrs != res.PinSteps {
		t.Errorf("accounted %d, ran %d", st.Instrs, res.PinSteps)
	}
	// Recording coverage is high once traces exist (Table 3).
	if st.Coverage() < 0.5 {
		t.Errorf("recording coverage = %.3f", st.Coverage())
	}
}

func TestReplayCoverageAtLeastRecordingDBTCoverage(t *testing.T) {
	// Table 2's expectation: replaying runs no cold warm-up, so TEA
	// coverage is >= the DBT's own recording-run coverage (within noise;
	// the paper saw one benchmark off by 0.2% for counting reasons).
	p := progs.Figure2(80, 500)
	res, err := dbt.New().Run(p, "mret", trace.Config{HotThreshold: 50}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Build(res.Set)
	tool := NewReplayTool(a, core.ConfigGlobalLocal)
	if _, err := pin.New().Run(p, tool, 0); err != nil {
		t.Fatal(err)
	}
	teaCov := tool.Stats().Coverage()
	dbtCov := res.Coverage()
	if teaCov+0.01 < dbtCov {
		t.Errorf("TEA replay coverage %.4f well below DBT coverage %.4f", teaCov, dbtCov)
	}
}

func TestReplayToolRoutesFiniInstrs(t *testing.T) {
	p := progs.Figure1(100, 50)
	set := trace.NewSet("mret", p)
	a := core.Build(set)
	tool := NewReplayTool(a, core.ConfigGlobalLocal)
	// Step-capped run: Fini carries leftover instructions.
	res, err := pin.New().Run(p, tool, 200)
	if err != nil {
		t.Fatal(err)
	}
	if tool.Stats().Instrs != res.PinSteps {
		t.Errorf("accounted %d, ran %d", tool.Stats().Instrs, res.PinSteps)
	}
}

func TestEmptyAutomatonReplayHasZeroCoverage(t *testing.T) {
	// Table 4's "Empty" configuration: an empty trace set replays with
	// zero coverage but still pays a global lookup per edge.
	p := progs.Figure2(60, 100)
	a := core.Build(trace.NewSet("mret", p))
	tool := NewReplayTool(a, core.ConfigGlobalNoLocal)
	res, err := pin.New().Run(p, tool, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := tool.Stats()
	if st.Coverage() != 0 {
		t.Errorf("coverage = %.3f, want 0", st.Coverage())
	}
	if st.GlobalLookups == 0 || st.GlobalLookups < res.Edges-2 {
		t.Errorf("GlobalLookups = %d over %d edges", st.GlobalLookups, res.Edges)
	}
}

func TestCrossEnvironmentTreeStrategies(t *testing.T) {
	// The cross-environment flow holds for tree-shaped traces too: TT and
	// CTT sets recorded in the DBT serialize, decode and replay under Pin.
	for _, strategy := range []string{"tt", "ctt"} {
		t.Run(strategy, func(t *testing.T) {
			p := progs.Figure2(60, 400)
			data := recordInDBT(t, p, strategy, trace.Config{HotThreshold: 20})
			a, err := core.Decode(data, cfg.NewCache(p, cfg.StarDBT))
			if err != nil {
				t.Fatal(err)
			}
			tool := NewReplayTool(a, core.ConfigGlobalLocal)
			if _, err := pin.New().Run(p, tool, 0); err != nil {
				t.Fatal(err)
			}
			if cov := tool.Stats().Coverage(); cov < 0.8 {
				t.Errorf("%s replay coverage %.3f", strategy, cov)
			}
		})
	}
}

// appendCapture is the plain-append reference EdgeCaptureTool is held to.
// It tees every callback into the capture under test and, at the listed
// edge counts, reads the capture mid-run, so Edge also runs after Edges.
type appendCapture struct {
	capt   *EdgeCaptureTool
	edges  []cfg.Edge
	instrs []uint64
	peekAt map[int]bool
	peeks  [][]cfg.Edge // what each mid-run Edges returned
	t      *testing.T
}

func (r *appendCapture) Edge(e cfg.Edge, instrs uint64) {
	r.capt.Edge(e, instrs)
	r.edges = append(r.edges, e)
	r.instrs = append(r.instrs, instrs)
	if r.peekAt[len(r.edges)] {
		r.check("mid-run")
		r.peeks = append(r.peeks, r.capt.Edges())
	}
}

func (r *appendCapture) Fini(instrs uint64) { r.capt.Fini(instrs) }

func (r *appendCapture) check(when string) {
	r.t.Helper()
	if !reflect.DeepEqual(r.capt.Edges(), r.edges) || !reflect.DeepEqual(r.capt.Instrs(), r.instrs) {
		r.t.Fatalf("%s after %d edges: capture (%d edges, %d instrs) differs from the append reference",
			when, len(r.edges), len(r.capt.Edges()), len(r.capt.Instrs()))
	}
}

// TestEdgeCaptureMatchesAppend: the chunked capture returns exactly what
// appending every edge to one slice would, on two generated programs, when
// read mid-run (chunk boundaries included) and after a step-capped run's
// Fini; a slice returned earlier keeps its contents as capture goes on.
func TestEdgeCaptureMatchesAppend(t *testing.T) {
	empty := NewEdgeCaptureTool()
	if len(empty.Edges()) != 0 || len(empty.Instrs()) != 0 {
		t.Fatalf("empty capture: %d edges, %d instrs", len(empty.Edges()), len(empty.Instrs()))
	}
	for _, name := range []string{"181.mcf", "176.gcc"} {
		spec, _ := workload.ByName(name)
		p, err := workload.Generate(spec, 600_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []uint64{0, 400_000} {
			r := &appendCapture{capt: NewEdgeCaptureTool(), t: t, peekAt: map[int]bool{
				1: true, captureChunk - 1: true, captureChunk: true, captureChunk + 1: true, 3*captureChunk + 7: true}}
			if _, err := pin.New().Run(p, r, limit); err != nil {
				t.Fatal(err)
			}
			if len(r.edges) <= 3*captureChunk+7 {
				t.Fatalf("%s: %d edges do not span the checked chunk boundaries", name, len(r.edges))
			}
			r.check(name + " final")
			r.check(name + " second read")
			for _, peek := range r.peeks {
				if !reflect.DeepEqual(peek, r.edges[:len(peek)]) {
					t.Fatalf("%s: the %d-edge slice returned mid-run changed", name, len(peek))
				}
			}
		}
	}
}
