package optim

import (
	"context"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

// profiledRun records traces on a benchmark, then replays with profiling.
func profiledRun(t *testing.T) (*isa.Program, *trace.Set, *teatool.ProfileTool) {
	t.Helper()
	spec, _ := workload.ByName("181.mcf")
	p, err := workload.Generate(spec, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 12})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Build(set)
	tool := teatool.NewProfileTool(a, core.ConfigGlobalLocal, nil)
	if _, err := pin.New().Run(p, tool, 0); err != nil {
		t.Fatal(err)
	}
	return p, set, tool
}

func TestPruneDropsColdTraces(t *testing.T) {
	p, set, tool := profiledRun(t)
	prof := tool.Profile()

	const minEnters = 24
	pruned, err := Prune(set, prof, minEnters)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Len() >= set.Len() {
		t.Fatalf("pruning removed nothing: %d -> %d traces", set.Len(), pruned.Len())
	}
	if pruned.Len() == 0 {
		t.Fatal("pruning removed everything")
	}
	// Every surviving trace was genuinely hot.
	a := tool.Replayer().Automaton()
	for _, tr := range pruned.Traces {
		orig, ok := set.ByEntry(tr.EntryAddr())
		if !ok {
			t.Fatalf("pruned set invented a trace at 0x%x", tr.EntryAddr())
		}
		id, _ := a.StateFor(orig.Head())
		if prof.StateCount(id) < minEnters {
			t.Fatalf("cold trace survived: %v entered %d times", tr, prof.StateCount(id))
		}
	}

	// The pruned automaton still passes invariants and keeps most of the
	// coverage on a fresh run.
	pa := core.Build(pruned)
	if err := pa.Check(); err != nil {
		t.Fatal(err)
	}
	full := replayCoverage(t, p, core.Build(set))
	lean := replayCoverage(t, p, pa)
	if lean < full-0.10 {
		t.Errorf("pruned coverage %.3f fell far below full %.3f", lean, full)
	}
	// And it is genuinely smaller on the wire.
	if core.EncodedSize(pa) >= core.EncodedSize(core.Build(set)) {
		t.Error("pruned automaton not smaller")
	}
}

func replayCoverage(t *testing.T, p *isa.Program, a *core.Automaton) float64 {
	t.Helper()
	tool := teatool.NewReplayTool(a, core.ConfigGlobalLocal)
	if _, err := pin.New().Run(p, tool, 0); err != nil {
		t.Fatal(err)
	}
	return tool.Stats().Coverage()
}

func TestPruneThresholdZeroKeepsEverything(t *testing.T) {
	_, set, tool := profiledRun(t)
	pruned, err := Prune(set, tool.Profile(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Len() != set.Len() || pruned.NumTBBs() != set.NumTBBs() {
		t.Errorf("threshold 0 changed the set: %d/%d vs %d/%d",
			pruned.Len(), pruned.NumTBBs(), set.Len(), set.NumTBBs())
	}
}
