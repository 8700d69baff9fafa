package dbt

import (
	"bytes"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

func TestRunRecordsTraces(t *testing.T) {
	p := progs.Figure2(60, 300)
	res, err := New().Run(p, "mret", trace.Config{HotThreshold: 50}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() == 0 {
		t.Fatal("no traces recorded")
	}
	if res.TraceBytes != res.Set.CodeBytes() {
		t.Error("TraceBytes disagrees with Set.CodeBytes")
	}
	if res.BlockCacheBytes == 0 {
		t.Error("no translated block bytes")
	}
	if res.Coverage() <= 0.5 {
		t.Errorf("coverage = %.3f", res.Coverage())
	}
	if res.Info.Steps == 0 || res.Info.Blocks == 0 {
		t.Errorf("info = %+v", res.Info)
	}
	_ = res.String()
}

func TestUnknownStrategyRejected(t *testing.T) {
	p := progs.Figure1(10, 1)
	if _, err := New().Run(p, "nope", trace.Config{}, 0); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestTimeUnitsIncludeTranslationAndRecording(t *testing.T) {
	p := progs.Figure2(60, 300)
	res, err := New().Run(p, "mret", trace.Config{HotThreshold: 50}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeUnits <= float64(res.Instrs) {
		t.Error("time units do not include translation overhead")
	}
	// But the DBT overhead is modest: well under 2x for a loopy program.
	if res.TimeUnits > 2*float64(res.Instrs) {
		t.Errorf("DBT slowdown %.2fx too high for a loopy program",
			res.TimeUnits/float64(res.Instrs))
	}
}

func TestCoverageZeroWithImpossibleThreshold(t *testing.T) {
	p := progs.Figure1(50, 2)
	res, err := New().Run(p, "mret", trace.Config{HotThreshold: 1 << 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 0 || res.Coverage() != 0 {
		t.Errorf("set=%v coverage=%.3f", res.Set, res.Coverage())
	}
}

func TestStepCap(t *testing.T) {
	p := progs.Figure1(100, 1000)
	res, err := New().Run(p, "mret", trace.Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Steps > 1300 {
		t.Errorf("Steps = %d with cap 1000", res.Info.Steps)
	}
}

func TestAllStrategiesRunUnderDBT(t *testing.T) {
	for _, s := range []string{"mret", "tt", "ctt", "mfet"} {
		p := progs.Figure2(60, 300)
		res, err := New().Run(p, s, trace.Config{HotThreshold: 30}, 0)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.Set.Strategy != s {
			t.Errorf("strategy = %q", res.Set.Strategy)
		}
		if res.Set.Len() == 0 {
			t.Errorf("%s recorded nothing", s)
		}
	}
}

func TestCustomCostModel(t *testing.T) {
	p := progs.Figure1(50, 5)
	free := &Translator{cost: CostModel{PerInstr: 1}}
	res, err := free.Run(p, "mret", trace.Config{HotThreshold: 1 << 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeUnits != float64(res.Instrs) {
		t.Errorf("TimeUnits = %.0f, want %d", res.TimeUnits, res.Instrs)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	p := progs.Figure2(60, 300)
	r1, err := New().Run(p, "ctt", trace.Config{HotThreshold: 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New().Run(p, "ctt", trace.Config{HotThreshold: 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Set.NumTBBs() != r2.Set.NumTBBs() || r1.TimeUnits != r2.TimeUnits ||
		r1.TraceBytes != r2.TraceBytes {
		t.Error("DBT runs not deterministic")
	}
}

func TestCodeImageMatchesAccounting(t *testing.T) {
	p := progs.Figure2(60, 300)
	res, err := New().Run(p, "mret", trace.Config{HotThreshold: 50}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(res.CodeImage)) != res.BlockCacheBytes {
		t.Errorf("code image %d bytes, accounting says %d", len(res.CodeImage), res.BlockCacheBytes)
	}
	if len(res.CodeImage) == 0 {
		t.Error("empty code image")
	}
}

// TestCodeImageMatchesFullScan: the code cache holds, in first-touch
// order, each block's encoding as a scan of every instruction of the
// program defines it, followed by its zeroed stub.
func TestCodeImageMatchesFullScan(t *testing.T) {
	spec, ok := workload.ByName("176.gcc")
	if !ok {
		t.Fatal("no workload 176.gcc")
	}
	p := workload.Program(spec)
	const steps = 300_000
	res, err := New().Run(p, "mret", trace.Config{HotThreshold: 12}, steps)
	if err != nil {
		t.Fatal(err)
	}

	m := cpu.New(p)
	r := cfg.NewRunner(m, cfg.StarDBT)
	var want []byte
	seen := make(map[uint64]bool)
	for m.Steps() < steps {
		e, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok || e.To == nil {
			break
		}
		if seen[e.To.Head] {
			continue
		}
		seen[e.To.Head] = true
		for i := 0; i < p.Len(); i++ {
			if in := p.Instr(i); in.Addr >= e.To.Head && in.Addr < e.To.Term.Next() {
				if want, err = isa.EncodeInstr(want, in); err != nil {
					t.Fatal(err)
				}
			}
		}
		want = append(want, make([]byte, BlockStubBytes)...)
	}
	if len(seen) < 100 {
		t.Fatalf("only %d blocks touched", len(seen))
	}
	if !bytes.Equal(res.CodeImage, want) {
		t.Fatalf("CodeImage differs from the full-scan encodings: %d vs %d bytes", len(res.CodeImage), len(want))
	}
}
