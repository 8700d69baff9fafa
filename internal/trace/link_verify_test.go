// Static-verifier assertions over trace.Link live in an external test
// package: internal/verify imports internal/trace, so the in-package test
// could not import the verifier without a cycle.
package trace_test

import (
	"context"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/verify"
	"github.com/lsc-tea/tea/internal/workload"
)

// TestLinkOutputsVerify: for every strategy, the linked trace structure the
// recorder produces — Succs maps, head anchoring, chain indices — passes
// the full automaton rule family against the program image.
func TestLinkOutputsVerify(t *testing.T) {
	for _, strategy := range []string{"mret", "tt", "ctt", "mfet"} {
		for _, seed := range []int64{2, 13} {
			spec, _ := workload.ByName("181.mcf")
			spec.Seed = seed
			spec.WorkScale = 8
			p := workload.Program(spec)
			s, ok := trace.NewStrategy(strategy, p, trace.Config{HotThreshold: 10})
			if !ok {
				t.Fatalf("strategy %q", strategy)
			}
			set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 2_000_000)
			if err != nil {
				t.Fatal(err)
			}
			a := core.Build(set)
			if r := verify.Automaton(a, cfg.NewCache(p, cfg.StarDBT)); !r.Clean() {
				t.Errorf("%s seed %d: recorded links fail verification:\n%s", strategy, seed, r)
			}
		}
	}
}

// TestManualLinkVerifies: hand-built linking through the public Link API —
// the same calls the strategies make — yields a verifiable automaton, and
// re-linking the same successor stays idempotent under verification.
func TestManualLinkVerifies(t *testing.T) {
	spec, _ := workload.ByName("181.mcf")
	spec.Seed = 2
	spec.WorkScale = 8
	p := workload.Program(spec)
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 10})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var tr *trace.Trace
	for _, c := range set.Traces {
		if len(c.TBBs) >= 2 {
			tr = c
			break
		}
	}
	if tr == nil {
		t.Skip("no trace with 2 TBBs")
	}
	// Idempotent re-link of an existing in-trace edge.
	if err := tr.TBBs[0].Link(tr.TBBs[1]); err != nil {
		t.Fatal(err)
	}
	a := core.Build(set)
	if r := verify.Automaton(a, cfg.NewCache(p, cfg.StarDBT)); !r.Clean() {
		t.Fatalf("re-linked set fails verification:\n%s", r)
	}
}
