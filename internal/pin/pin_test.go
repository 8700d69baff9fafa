package pin

import (
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/progs"
)

// countingTool records every callback it receives.
type countingTool struct {
	edges      int
	finis      int
	instrs     uint64
	finiInstrs uint64
	sawEntry   bool
	sawFinal   bool
	nonBranch  int
}

func (c *countingTool) Edge(e cfg.Edge, instrs uint64) {
	c.edges++
	c.instrs += instrs
	if e.From == nil {
		c.sawEntry = true
		if instrs != 0 {
			c.nonBranch++ // entry edge must carry no instructions
		}
	} else if e.To == nil {
		c.sawFinal = true
	} else if !e.From.Term.IsBranch() {
		c.nonBranch++
	}
}

func (c *countingTool) Fini(instrs uint64) {
	c.finis++
	c.finiInstrs += instrs
}

func TestRunWithoutTool(t *testing.T) {
	p := progs.Figure1(50, 4)
	res, err := New().Run(p, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 || res.Blocks == 0 || res.StaticBlocks == 0 {
		t.Errorf("result = %+v", res)
	}
	if res.EngineUnits <= float64(res.PinSteps) {
		t.Error("engine overhead missing")
	}
}

func TestToolSeesOnlyBranchEdges(t *testing.T) {
	// RepDemo has REP and CPUID instructions: Pin splits blocks there, but
	// the tool must only see StarDBT-visible transitions (§4.1).
	p := progs.RepDemo(30)
	tool := &countingTool{}
	res, err := New().Run(p, tool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tool.nonBranch != 0 {
		t.Errorf("%d non-branch edges leaked to the tool", tool.nonBranch)
	}
	if !tool.sawEntry || !tool.sawFinal {
		t.Error("entry or final edge missing")
	}
	if tool.finis != 1 {
		t.Errorf("Fini called %d times", tool.finis)
	}
	// Pin reported fewer edges to the tool than blocks executed (splits
	// were merged).
	if res.Edges >= res.Blocks {
		t.Errorf("edges %d >= blocks %d; splits not merged", res.Edges, res.Blocks)
	}
}

func TestInstructionCountsPinConvention(t *testing.T) {
	p := progs.RepDemo(10)
	tool := &countingTool{}
	res, err := New().Run(p, tool, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every Pin-counted instruction reaches the tool exactly once.
	if got := tool.instrs + tool.finiInstrs; got != res.PinSteps {
		t.Errorf("tool saw %d instrs, machine ran %d", got, res.PinSteps)
	}
	// REP expansion: Pin count exceeds StarDBT count.
	if res.PinSteps <= res.Steps {
		t.Errorf("PinSteps %d <= Steps %d; REP not expanded", res.PinSteps, res.Steps)
	}
}

func TestStepCapFlushesToFini(t *testing.T) {
	p := progs.Figure1(100, 100)
	tool := &countingTool{}
	res, err := New().Run(p, tool, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < 300 {
		t.Errorf("Steps = %d", res.Steps)
	}
	if tool.finis != 1 {
		t.Errorf("Fini called %d times", tool.finis)
	}
	if tool.instrs+tool.finiInstrs != res.PinSteps {
		t.Error("instructions lost on step cap")
	}
}

func TestEngineUnitsGrowWithBranchiness(t *testing.T) {
	// Same dynamic instruction budget, more blocks => more overhead. The
	// call-heavy demo has far smaller blocks than the straight-line copy.
	copyProg := progs.Figure1(400, 10)
	callProg := progs.CallDemo(1000)
	rc, err := New().Run(copyProg, nil, 20000)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := New().Run(callProg, nil, 20000)
	if err != nil {
		t.Fatal(err)
	}
	relCopy := rc.EngineUnits / float64(rc.PinSteps)
	relCall := rb.EngineUnits / float64(rb.PinSteps)
	if relCall <= relCopy {
		t.Errorf("branchy overhead %.3f <= straight-line overhead %.3f", relCall, relCopy)
	}
}

func TestCostAccessors(t *testing.T) {
	if DefaultCostModel().PerCall <= DefaultCostModel().PerBlock {
		t.Error("analysis calls should dominate block overhead")
	}
}
