package dcfg

import (
	"context"
	"strings"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
)

func recordSet(t *testing.T, strategy string) *trace.Set {
	t.Helper()
	p := progs.Figure2(60, 200)
	s, _ := trace.NewStrategy(strategy, p, trace.Config{HotThreshold: 30})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestGraphMirrorsSet(t *testing.T) {
	set := recordSet(t, "mret")
	g := FromSet(set)
	if len(g.Nodes) != set.NumTBBs() {
		t.Fatalf("nodes = %d, want %d", len(g.Nodes), set.NumTBBs())
	}
	// Edge count equals total in-trace successor links.
	wantEdges := 0
	for _, tr := range set.Traces {
		for _, tbb := range tr.TBBs {
			wantEdges += len(tbb.Succs)
		}
	}
	if len(g.Edges) != wantEdges {
		t.Errorf("edges = %d, want %d", len(g.Edges), wantEdges)
	}
	// One node per TBB in trace order, with its block's bytes.
	i := 0
	for _, tr := range set.Traces {
		for _, tbb := range tr.TBBs {
			if n := g.Nodes[i]; n.ID != i || n.TBB != tbb || n.CodeBytes != tbb.Block.Bytes {
				t.Fatalf("node %d = %+v, want %v", i, n, tbb)
			}
			i++
		}
	}
	// Edge targets valid and label-consistent.
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			t.Fatal("edge out of range")
		}
		if g.Nodes[e.To].TBB.Block.Head != e.Label {
			t.Fatal("edge label does not match target head")
		}
	}
}

func TestSection3Contrast(t *testing.T) {
	// The paper's §3 contrast: DCFG replicates code, TEA stores only state
	// and is far smaller; the DCFG has no NTE, the TEA does.
	set := recordSet(t, "mret")
	a := core.Build(set)
	g := FromSet(set)
	if tea, code := core.EncodedSize(a), g.CodeBytes(); tea >= code {
		t.Errorf("TEA (%dB) not smaller than DCFG (%dB)", tea, code)
	}
	if len(g.Nodes)+1 != a.NumStates() {
		t.Errorf("DCFG has %d nodes but TEA has %d states; want exactly one extra (NTE)",
			len(g.Nodes), a.NumStates())
	}
}

func TestDotOutput(t *testing.T) {
	set := recordSet(t, "mret")
	g := FromSet(set)
	dot := g.Dot("test")
	for _, want := range []string{"digraph", "cluster_T1", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot missing %q", want)
		}
	}
	if strings.Contains(dot, "NTE") {
		t.Error("DCFG must not contain an NTE node (§3)")
	}
}

func TestTreeSetGraph(t *testing.T) {
	set := recordSet(t, "tt")
	g := FromSet(set)
	if len(g.Nodes) == 0 {
		t.Fatal("empty graph for TT set")
	}
	// Trees have internal fan-out: some node has 2+ outgoing edges.
	outDeg := make(map[int]int)
	for _, e := range g.Edges {
		outDeg[e.From]++
	}
	max := 0
	for _, d := range outDeg {
		if d > max {
			max = d
		}
	}
	if max < 2 {
		t.Error("TT DCFG has no fan-out; tree structure lost")
	}
}
