package profile

import (
	"context"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
)

// buildAndProfile records traces on p, then replays while profiling.
func buildAndProfile(t *testing.T, p *isa.Program, threshold int) (*core.Automaton, *Profile) {
	t.Helper()
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: threshold})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Build(set)
	rep := core.NewReplayer(a, core.ConfigGlobalLocal)
	prof := New(a)

	m := cpu.New(p)
	run := cfg.NewRunner(m, cfg.StarDBT)
	var prev uint64
	for {
		e, ok, err := run.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok || e.To == nil {
			break
		}
		instrs := m.Steps() - prev
		prev = m.Steps()
		from := rep.Cur()
		to := rep.Advance(e.To.Head, instrs)
		prof.Observe(from, to, instrs)
	}
	return a, prof
}

func TestProfileCountsMatchReplay(t *testing.T) {
	p := progs.Figure2(60, 300)
	a, prof := buildAndProfile(t, p, 50)

	set := a.Set()
	t1, ok := set.ByEntry(p.Labels["header"])
	if !ok {
		t.Fatal("no header trace")
	}
	headID, _ := a.StateFor(t1.Head())
	if prof.StateCount(headID) == 0 {
		t.Error("head state never counted")
	}
	if prof.StateInstrs(headID) == 0 {
		t.Error("head state has no instructions attributed")
	}
	// Edge counts: the head's in-trace successor edge must be hot.
	hot := false
	for _, tr := range a.FullTransitions(headID) {
		if tr.InTrace && prof.edges[Edge{headID, tr.To}] > 10 {
			hot = true
		}
	}
	if !hot {
		t.Error("no hot in-trace edge out of head")
	}
}

func TestExitRatioLowForStableLoop(t *testing.T) {
	// Figure 1's copy loop is perfectly stable: a single-path cycle.
	p := progs.Figure1(200, 100)
	a, prof := buildAndProfile(t, p, 30)
	set := a.Set()
	loop, ok := set.ByEntry(p.Labels["loop"])
	if !ok {
		t.Fatal("no loop trace")
	}
	if r := prof.ExitRatio(loop); r > 0.05 {
		t.Errorf("exit ratio %.3f for a stable loop", r)
	}
}

func TestHottestTracesOrdered(t *testing.T) {
	p := progs.Figure2(60, 300)
	_, prof := buildAndProfile(t, p, 30)
	heats := prof.HottestTraces(100)
	if len(heats) == 0 {
		t.Fatal("no traces")
	}
	for i := 1; i < len(heats); i++ {
		if heats[i-1].Instrs < heats[i].Instrs {
			t.Fatal("heats not descending")
		}
	}
	// Truncation works.
	if len(prof.HottestTraces(1)) != 1 {
		t.Error("truncation broken")
	}
}

func TestPhaseDetectorSeparatesPhases(t *testing.T) {
	d := NewPhaseDetector(100, 0.15)
	// 10 windows stable, 10 windows unstable, 10 stable again.
	feed := func(windows int, exitEvery int) {
		for i := 0; i < windows*100; i++ {
			d.Observe(true, exitEvery > 0 && i%exitEvery == 0)
		}
	}
	feed(10, 0) // no exits: stable
	feed(10, 2) // every other transition exits: unstable
	feed(10, 0) // stable again
	phases := d.Phases()
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3: %+v", len(phases), phases)
	}
	wantKinds := []PhaseKind{Stable, Unstable, Stable}
	for i, ph := range phases {
		if ph.Kind != wantKinds[i] {
			t.Errorf("phase %d kind = %v, want %v", i, ph.Kind, wantKinds[i])
		}
		if ph.EndEdge <= ph.StartEdge {
			t.Errorf("phase %d has empty span", i)
		}
	}
	if phases[1].MeanExitRatio < 0.4 {
		t.Errorf("unstable phase ratio %.2f too low", phases[1].MeanExitRatio)
	}
	if f := d.StableFraction(); f < 0.6 || f > 0.7 {
		t.Errorf("stable fraction = %.2f, want ~2/3", f)
	}
}

func TestPhaseDetectorColdIsUnstable(t *testing.T) {
	d := NewPhaseDetector(50, 0.15)
	for i := 0; i < 100; i++ {
		d.Observe(false, false) // never in a trace
	}
	for _, ph := range d.Phases() {
		if ph.Kind != Unstable {
			t.Errorf("cold execution classified %v", ph.Kind)
		}
	}
}

func TestPhaseDetectorDefaults(t *testing.T) {
	d := NewPhaseDetector(0, 0)
	if d.window != 4096 || d.threshold != 0.15 {
		t.Errorf("defaults: window=%d threshold=%f", d.window, d.threshold)
	}
	if d.StableFraction() != 0 {
		t.Error("empty detector should report 0")
	}
	_ = Stable.String()
	_ = Unstable.String()
}
