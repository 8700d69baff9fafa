package optim

import (
	"context"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

// twoRunSets records the same program with two different thresholds,
// producing overlapping but distinct trace sets (a stand-in for two runs
// with different inputs).
func twoRunSets(t *testing.T) (*trace.Set, *trace.Set) {
	t.Helper()
	spec, _ := workload.ByName("181.mcf")
	p, err := workload.Generate(spec, 250_000)
	if err != nil {
		t.Fatal(err)
	}
	record := func(threshold int) *trace.Set {
		s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: threshold})
		set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	return record(12), record(40)
}

func TestMergeUnionsEntries(t *testing.T) {
	a, b := twoRunSets(t)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}

	entries := make(map[uint64]bool)
	for _, e := range m.Entries() {
		entries[e] = true
	}
	for _, s := range []*trace.Set{a, b} {
		for _, e := range s.Entries() {
			if !entries[e] {
				t.Fatalf("entry 0x%x lost in merge", e)
			}
		}
	}
	if m.Len() < a.Len() || m.Len() < b.Len() {
		t.Errorf("merge smaller than an input: %d vs %d/%d", m.Len(), a.Len(), b.Len())
	}
	// The merged set builds a valid automaton.
	if err := core.Build(m).Check(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeKeepsLargerTrace(t *testing.T) {
	a, b := twoRunSets(t)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range m.Traces {
		ta, okA := a.ByEntry(tr.EntryAddr())
		tb, okB := b.ByEntry(tr.EntryAddr())
		want := 0
		if okA && ta.Len() > want {
			want = ta.Len()
		}
		if okB && tb.Len() > want {
			want = tb.Len()
		}
		if tr.Len() != want {
			t.Fatalf("entry 0x%x merged to %d TBBs, want %d", tr.EntryAddr(), tr.Len(), want)
		}
	}
}

func TestMergeDeterministic(t *testing.T) {
	a, b := twoRunSets(t)
	m1, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := core.Encode(core.Build(m1))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := core.Encode(core.Build(m2))
	if err != nil {
		t.Fatal(err)
	}
	if string(e1) != string(e2) {
		t.Error("merge not deterministic")
	}
}

func TestMergeEmpty(t *testing.T) {
	m, err := Merge()
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Error("empty merge not empty")
	}
	a, _ := twoRunSets(t)
	got, err := Merge(a)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != a.Len() {
		t.Error("single-set merge changed the set")
	}
}
