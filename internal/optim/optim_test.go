package optim

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
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/trace"
)

// recordLoopSet records MRET traces for the Figure 1 copy loop.
func recordLoopSet(t *testing.T, p *isa.Program) (*trace.Set, *trace.Trace) {
	t.Helper()
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 30})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	loop, ok := set.ByEntry(p.Labels["loop"])
	if !ok {
		t.Fatalf("no trace at loop; entries %#x", set.Entries())
	}
	return set, loop
}

func TestDuplicateShape(t *testing.T) {
	p := progs.Figure1(200, 50)
	set, loop := recordLoopSet(t, p)
	n := loop.Len()

	dupSet, dup, err := Duplicate(set, loop.ID)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Len() != 2*n {
		t.Fatalf("duplicate has %d TBBs, want %d", dup.Len(), 2*n)
	}
	if dupSet.Len() != set.Len() {
		t.Errorf("set sizes differ: %d vs %d", dupSet.Len(), set.Len())
	}
	// Body order: TBB i and TBB i+n share the same block.
	for i := 0; i < n; i++ {
		if dup.TBBs[i].Block != dup.TBBs[i+n].Block {
			t.Fatalf("copy mismatch at %d", i)
		}
	}
	// The duplicate is still a simple cycle of length 2n.
	if err := checkSimpleCycle(dup); err != nil {
		t.Fatal(err)
	}
	// The original set is untouched.
	if loop.Len() != n {
		t.Error("input set mutated")
	}
	// The rebuilt automaton passes its invariants.
	if err := Rebuild(dupSet).Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateRejectsNonCycle(t *testing.T) {
	p := progs.Figure2(60, 300)
	s, _ := trace.NewStrategy("tt", p, trace.Config{HotThreshold: 20})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Find a tree with more than one successor somewhere.
	for _, tr := range set.Traces {
		branchy := false
		for _, b := range tr.TBBs {
			if len(b.Succs) > 1 {
				branchy = true
			}
		}
		if branchy {
			if _, _, err := Duplicate(set, tr.ID); err == nil {
				t.Fatal("branchy tree accepted for duplication")
			}
			return
		}
	}
	t.Skip("no branchy tree recorded")
}

func TestDuplicateUnknownID(t *testing.T) {
	p := progs.Figure1(100, 30)
	set, _ := recordLoopSet(t, p)
	if _, _, err := Duplicate(set, 9999); err == nil {
		t.Error("unknown trace id accepted")
	}
}

func TestProfileByCopySplitsIterations(t *testing.T) {
	// The full Figure 1 story: record the copy loop, duplicate it, replay
	// the duplicated TEA against the unmodified program while profiling,
	// and observe per-copy counts — the labels an unroller would consume.
	p := progs.Figure1(200, 50)
	set, loop := recordLoopSet(t, p)
	dupSet, dup, err := Duplicate(set, loop.ID)
	if err != nil {
		t.Fatal(err)
	}
	a := Rebuild(dupSet)
	tool := teatool.NewProfileTool(a, core.ConfigGlobalLocal, nil)
	if _, err := pin.New().Run(p, tool, 0); err != nil {
		t.Fatal(err)
	}
	cp, err := ProfileByCopy(tool.Profile(), dup)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Enters[0] == 0 || cp.Enters[1] == 0 {
		t.Fatalf("copies not both executed: %+v", cp.Enters)
	}
	// Alternating iterations: the two copies run nearly equally often.
	ratio := float64(cp.Enters[0]) / float64(cp.Enters[1])
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("copy balance %.2f, want ~1.0", ratio)
	}
	if len(cp.PerTBB) != dup.Len() {
		t.Errorf("PerTBB has %d entries, want %d", len(cp.PerTBB), dup.Len())
	}
	for _, tc := range cp.PerTBB {
		if tc.Copy != 0 && tc.Copy != 1 {
			t.Errorf("bad copy index %d", tc.Copy)
		}
	}
}

func TestProfileByCopyRejectsOddTrace(t *testing.T) {
	p := progs.Figure1(100, 30)
	set, loop := recordLoopSet(t, p)
	if loop.Len()%2 == 0 {
		t.Skip("loop trace has even length; cannot exercise odd rejection")
	}
	a := core.Build(set)
	prof := profile.New(a)
	if _, err := ProfileByCopy(prof, loop); err == nil {
		t.Error("odd-length trace accepted")
	}
}
