package teatool

import (
	"context"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/profile"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
)

func buildFigure2Automaton(t *testing.T, strategy string) (*isa.Program, *core.Automaton) {
	t.Helper()
	p := progs.Figure2(60, 300)
	s, _ := trace.NewStrategy(strategy, p, trace.Config{HotThreshold: 30})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p, core.Build(set)
}

func TestProfileToolCollectsCounts(t *testing.T) {
	p, a := buildFigure2Automaton(t, "mret")
	tool := NewProfileTool(a, core.ConfigGlobalLocal, nil)
	res, err := pin.New().Run(p, tool, 0)
	if err != nil {
		t.Fatal(err)
	}
	prof := tool.Profile()
	// The profile saw every instruction the engine ran.
	var total uint64
	for i := 0; i < a.NumStates(); i++ {
		total += prof.StateInstrs(core.StateID(i))
	}
	if total != res.PinSteps {
		t.Errorf("profile attributed %d instrs, engine ran %d", total, res.PinSteps)
	}
	// The replayer's coverage agrees with the profile's in-trace share.
	var inTrace uint64
	for i := 1; i < a.NumStates(); i++ {
		inTrace += prof.StateInstrs(core.StateID(i))
	}
	stats := tool.Replayer().Stats()
	if inTrace != stats.TraceInstrs {
		t.Errorf("profile in-trace %d != replayer %d", inTrace, stats.TraceInstrs)
	}
	if tool.Phases() != nil {
		t.Error("unexpected phase detector")
	}
}

func TestProfileToolFeedsPhaseDetector(t *testing.T) {
	// Figure 1's copy loop is a single-path cycle: once traced, execution
	// never takes a side exit, so the run is almost entirely stable.
	p := progs.Figure1(200, 200)
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 30})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Build(set)
	det := profile.NewPhaseDetector(128, 0.15)
	tool := NewProfileTool(a, core.ConfigGlobalLocal, det)
	if _, err := pin.New().Run(p, tool, 0); err != nil {
		t.Fatal(err)
	}
	if len(det.Phases()) == 0 {
		t.Fatal("no phases observed")
	}
	if det.StableFraction() < 0.8 {
		t.Errorf("stable fraction %.2f for a single-path loop", det.StableFraction())
	}
	if tool.Phases() != det {
		t.Error("detector not exposed")
	}
}

func TestLeftTrace(t *testing.T) {
	p, a := buildFigure2Automaton(t, "mret")
	_ = p
	// Find two states in different traces and one NTE case.
	set := a.Set()
	if set.Len() < 2 {
		t.Skip("need two traces")
	}
	s1, _ := a.StateFor(set.Traces[0].Head())
	s2, _ := a.StateFor(set.Traces[1].Head())
	if !leftTrace(a, s1, core.NTE) {
		t.Error("exit to NTE not detected")
	}
	if !leftTrace(a, s1, s2) {
		t.Error("cross-trace transition not detected")
	}
	if leftTrace(a, s1, s1) {
		t.Error("self transition misdetected")
	}
}
