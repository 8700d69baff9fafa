// Package dcfg materializes the Dynamic Control Flow Graph of a trace set
// — the structure the paper contrasts TEA with in §3: "The TEA is
// logically similar to the dynamic control flow graph (DCFG) for the
// traces... TEA, however, contains just the state information, whereas the
// DCFG contains code replication. TEA also models the whole program
// execution with the aid of the NTE state, while the DCFG only represents
// the hot code."
//
// The package exists to make that comparison concrete: the DCFG's nodes
// carry replicated code bytes, it has no NTE node, and its rendering sits
// side by side with core.Dot for the same trace set.
package dcfg

import (
	"fmt"
	"strings"

	"github.com/lsc-tea/tea/internal/trace"
)

// Node is one TBB instance of the DCFG, carrying its replicated code.
type Node struct {
	// ID indexes the node within the graph.
	ID int
	// TBB is the trace block instance the node replicates.
	TBB *trace.TBB
	// CodeBytes is the size of this node's code copy.
	CodeBytes uint64
}

// Edge is a control-flow edge between two DCFG nodes.
type Edge struct {
	From, To int
	// Label is the program counter that takes the edge.
	Label uint64
}

// Graph is the DCFG of one trace set: only hot code, no NTE.
type Graph struct {
	Nodes []*Node
	Edges []Edge
}

// FromSet builds the DCFG of a trace set.
func FromSet(set *trace.Set) *Graph {
	g := &Graph{}
	byTBB := make(map[*trace.TBB]int)
	for _, t := range set.Traces {
		for _, tbb := range t.TBBs {
			n := &Node{ID: len(g.Nodes), TBB: tbb, CodeBytes: tbb.Block.Bytes}
			g.Nodes = append(g.Nodes, n)
			byTBB[tbb] = n.ID
		}
	}
	for _, t := range set.Traces {
		for _, tbb := range t.TBBs {
			from := byTBB[tbb]
			for _, label := range tbb.SuccLabels() {
				g.Edges = append(g.Edges, Edge{From: from, To: byTBB[tbb.Succs[label]], Label: label})
			}
		}
	}
	return g
}

// CodeBytes is the total replicated code the DCFG carries — what TEA's
// state-only representation avoids.
func (g *Graph) CodeBytes() uint64 {
	var n uint64
	for _, node := range g.Nodes {
		n += node.CodeBytes
	}
	return n
}

// Dot renders the DCFG as Graphviz, one subgraph cluster per trace, for
// side-by-side comparison with core.Dot of the same set (which adds NTE
// and the entry/exit transitions the DCFG lacks).
func (g *Graph) Dot(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  node [shape=box, fontname=\"Helvetica\"];\n")
	var curTrace *trace.Trace
	open := false
	for _, n := range g.Nodes {
		if n.TBB.Trace != curTrace {
			if open {
				b.WriteString("  }\n")
			}
			curTrace = n.TBB.Trace
			fmt.Fprintf(&b, "  subgraph cluster_T%d {\n    label=\"T%d\";\n", curTrace.ID, curTrace.ID)
			open = true
		}
		fmt.Fprintf(&b, "    n%d [label=\"%s\\n%dB\"];\n", n.ID, n.TBB.Name(), n.CodeBytes)
	}
	if open {
		b.WriteString("  }\n")
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"0x%x\"];\n", e.From, e.To, e.Label)
	}
	b.WriteString("}\n")
	return b.String()
}
