package workload

import (
	"context"
	"sort"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/trace"
)

func TestBenchmarkListMatchesPaper(t *testing.T) {
	specs := Benchmarks()
	if len(specs) != 26 {
		t.Fatalf("got %d benchmarks, want 26", len(specs))
	}
	fp, in := 0, 0
	seen := make(map[string]bool)
	for _, s := range specs {
		if seen[s.Name] {
			t.Errorf("duplicate benchmark %s", s.Name)
		}
		seen[s.Name] = true
		switch s.Suite {
		case FP:
			fp++
		case INT:
			in++
		default:
			t.Errorf("%s has bad suite %q", s.Name, s.Suite)
		}
		if s.Funcs < 1 || s.Stmts < 1 || s.LoopIters < 2 || s.Seed == 0 {
			t.Errorf("%s has degenerate parameters: %+v", s.Name, s)
		}
	}
	if fp != 14 || in != 12 {
		t.Errorf("fp=%d int=%d, want 14/12", fp, in)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("176.gcc"); !ok {
		t.Error("full name not found")
	}
	if s, ok := ByName("gcc"); !ok || s.Name != "176.gcc" {
		t.Error("short name not found")
	}
	if _, ok := ByName("doom"); ok {
		t.Error("bogus name resolved")
	}
}

func TestProgramsRunToCompletion(t *testing.T) {
	for _, spec := range Benchmarks() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			spec.WorkScale = 2
			p := Program(spec)
			m := cpu.New(p)
			if err := m.Run(100_000_000); err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			if !m.Halted() {
				t.Fatal("did not halt")
			}
			if m.Steps() < 1000 {
				t.Errorf("only %d steps; program degenerate", m.Steps())
			}
		})
	}
}

func TestGenerationDeterministic(t *testing.T) {
	spec, _ := ByName("186.crafty")
	spec.WorkScale = 3
	p1 := Program(spec)
	p2 := Program(spec)
	if p1.Len() != p2.Len() || p1.StaticBytes() != p2.StaticBytes() {
		t.Fatal("generation not deterministic")
	}
	m1, m2 := cpu.New(p1), cpu.New(p2)
	if err := m1.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if m1.Steps() != m2.Steps() || m1.PinSteps() != m2.PinSteps() {
		t.Error("executions diverge")
	}
}

func TestGenerateCalibratesScale(t *testing.T) {
	spec, _ := ByName("181.mcf")
	p, err := Generate(spec, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.New(p)
	if err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	steps := m.Steps()
	// Within a factor of 2 of target (or raised to the minimum outer count).
	if steps < 200_000 {
		t.Errorf("steps = %d, want >= 200k", steps)
	}
	if steps > 8_000_000 {
		t.Errorf("steps = %d, way over target", steps)
	}
}

func TestSuitesDifferStructurally(t *testing.T) {
	// FP programs must be loopier (higher dynamic-to-static ratio per
	// block visit) and less branchy than INT programs, since that contrast
	// drives every table's fp/int split.
	ratio := func(name string) (branchFrac float64) {
		spec, _ := ByName(name)
		spec.WorkScale = 2
		p := Program(spec)
		m := cpu.New(p)
		r := cfg.NewRunner(m, cfg.StarDBT)
		var edges, condTaken uint64
		for {
			e, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok || e.To == nil {
				break
			}
			if e.From != nil {
				edges++
				if e.From.Term.IsCondBranch() {
					condTaken++
				}
			}
		}
		return float64(condTaken) / float64(edges)
	}
	swim := ratio("171.swim")
	gcc := ratio("176.gcc")
	if gcc <= swim {
		t.Errorf("gcc cond-branch fraction %.3f <= swim %.3f", gcc, swim)
	}
}

func TestRepOpsPresentWhereSpecified(t *testing.T) {
	spec, _ := ByName("171.swim")
	spec.WorkScale = 2
	p := Program(spec)
	m := cpu.New(p)
	if err := m.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if m.RepOps() == 0 {
		t.Error("swim executed no REP operations")
	}
	if m.PinSteps() <= m.Steps() {
		t.Error("Pin count should exceed StarDBT count with REPs present")
	}
}

func TestIndirectCallsPresent(t *testing.T) {
	spec, _ := ByName("253.perlbmk")
	spec.WorkScale = 2
	p := Program(spec)
	ind := 0
	for i := 0; i < p.Len(); i++ {
		in := p.Instr(i)
		if in.Op.String() == "callind" || in.Op.String() == "jind" {
			ind++
		}
	}
	if ind == 0 {
		t.Error("perlbmk has no indirect control flow")
	}
}

func TestTraceSelectionFindsHotCode(t *testing.T) {
	// Every benchmark must yield traces under MRET at the paper's
	// threshold once the main loop repeats enough.
	for _, name := range []string{"171.swim", "176.gcc", "256.bzip2", "252.eon"} {
		spec, _ := ByName(name)
		p, err := Generate(spec, 300_000)
		if err != nil {
			t.Fatal(err)
		}
		s := trace.NewMRET(p, trace.Config{HotThreshold: 50})
		set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if set.Len() == 0 {
			t.Errorf("%s: MRET found no hot code", name)
		}
	}
}

func TestGccBiggerThanSwim(t *testing.T) {
	// Static code size ordering that drives Table 1's shape.
	gcc, _ := ByName("176.gcc")
	swim, _ := ByName("171.swim")
	gcc.WorkScale, swim.WorkScale = 1, 1
	if Program(gcc).StaticBytes() < 4*Program(swim).StaticBytes() {
		t.Error("gcc not substantially bigger than swim")
	}
}

func TestExecutionConcentration(t *testing.T) {
	// Real programs obey a 90/10 rule; the generator's hot/cold budget skew
	// exists to reproduce it. Measure it directly: the most-executed tenth
	// of the static instructions must carry the bulk of the dynamic
	// execution.
	spec, _ := ByName("252.eon")
	spec.WorkScale = 4
	p := Program(spec)

	m := cpu.New(p)
	counts := make(map[uint64]uint64, p.Len())
	for !m.Halted() {
		pc := m.PC()
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
		counts[pc]++
	}
	per := make([]uint64, 0, len(counts))
	var total uint64
	for _, n := range counts {
		per = append(per, n)
		total += n
	}
	sort.Slice(per, func(i, j int) bool { return per[i] > per[j] })
	top := p.Len() / 10
	if top > len(per) {
		top = len(per)
	}
	var hot uint64
	for _, n := range per[:top] {
		hot += n
	}
	if frac := float64(hot) / float64(total); frac < 0.6 {
		t.Errorf("top 10%% of instructions carry only %.1f%% of execution", frac*100)
	}
}

func TestJumpTablesStayBelowDataRegion(t *testing.T) {
	// Table slots must never collide with the data window.
	for _, name := range []string{"176.gcc", "253.perlbmk", "186.crafty"} {
		spec, _ := ByName(name)
		spec.WorkScale = 1
		p := Program(spec)
		for addr := range p.InitData {
			if addr != randAddr && (addr < tableBase || addr >= dataBase) {
				t.Errorf("%s: init data at %d outside table region", name, addr)
			}
		}
	}
}

func TestSwitchDispatchExecutes(t *testing.T) {
	// Programs with SwitchProb must execute jind instructions at runtime.
	spec, _ := ByName("176.gcc")
	spec.WorkScale = 2
	p := Program(spec)
	m := cpu.New(p)
	jinds := 0
	for !m.Halted() {
		in, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if in.Op == isa.JIND {
			jinds++
		}
	}
	if jinds == 0 {
		t.Error("gcc executed no computed-goto dispatches")
	}
}
