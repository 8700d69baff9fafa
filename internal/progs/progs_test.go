package progs

import (
	"context"
	"strings"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/trace"
)

func TestFigure1Runs(t *testing.T) {
	p := Figure1(100, 3)
	m := cpu.New(p)
	if err := m.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	// The copy really happened on the last round.
	for i := int64(0); i < 100; i++ {
		if m.Mem(4000+i) != i*7 {
			t.Fatalf("mem[%d] = %d, want %d", 4000+i, m.Mem(4000+i), i*7)
		}
	}
}

func TestFigure2CountsValues(t *testing.T) {
	p := Figure2(60, 2)
	m := cpu.New(p)
	if err := m.Run(1 << 22); err != nil {
		t.Fatal(err)
	}
	// Values cycle 0..3 over 60 nodes: value 1 appears 15 times.
	if got := m.Reg(isa.EAX); got != 15 {
		t.Errorf("count = %d, want 15", got)
	}
}

func TestRepDemoAndCallDemoRun(t *testing.T) {
	for _, p := range []*isa.Program{RepDemo(10), CallDemo(10)} {
		m := cpu.New(p)
		if err := m.Run(1 << 20); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	// CallDemo's indirect call executed f2: eax = rounds*(1+2).
	m := cpu.New(CallDemo(10))
	if err := m.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(isa.EAX); got != 30 {
		t.Errorf("CallDemo eax = %d, want 30", got)
	}
}

// TestFigure3Golden locks in the structure of the paper's Figure 3: the
// whole-program TEA for the linked-list scan. The exact trace partition
// depends on the recording order, but the figure's invariants must hold:
// the scan-loop blocks (header, cmpv, inc+next) are all represented, every
// trace entry has an NTE transition, the hot cycle closes inside a trace,
// and duplicated instances of `next` are distinguishable by state.
func TestFigure3Golden(t *testing.T) {
	p := Figure2(60, 200)
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 50})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Build(set)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}

	sum := core.Summary(a)
	for _, block := range []string{"header", "inc", "begin"} {
		if !strings.Contains(sum, "."+block) {
			t.Errorf("summary missing block %q:\n%s", block, sum)
		}
	}

	// The header trace cycles: some state transitions back to the header
	// head on the header's address.
	header := p.Labels["header"]
	t1, ok := set.ByEntry(header)
	if !ok {
		t.Fatal("no trace anchored at header")
	}
	headID, _ := a.StateFor(t1.Head())
	cycle := false
	for _, tbb := range t1.TBBs {
		if succ, ok := tbb.Succs[header]; ok && succ == t1.Head() {
			cycle = true
		}
	}
	if !cycle {
		t.Error("header trace does not close its cycle")
	}

	// Every entry in the automaton's table is reachable from NTE.
	for _, e := range a.Entries() {
		if e.State == core.NTE {
			t.Error("entry mapping to NTE")
		}
	}

	// Duplicated block: `next` (merged with inc) appears in more than one
	// trace instance, and the instances are distinct states — the paper's
	// $$T1.next vs $$T2.next distinction.
	nextAddr := p.Labels["inc"] // StarDBT merges inc+next into one block
	var instances []*trace.TBB
	for _, tr := range set.Traces {
		instances = append(instances, tr.FindByBlock(nextAddr)...)
	}
	if len(instances) >= 2 {
		id0, _ := a.StateFor(instances[0])
		id1, _ := a.StateFor(instances[1])
		if id0 == id1 {
			t.Error("duplicate block instances share a state")
		}
	}

	// NTE transition count equals the trace count.
	if got := len(a.FullTransitions(core.NTE)); got != set.Len() {
		t.Errorf("NTE has %d transitions, want %d", got, set.Len())
	}
	_ = headID
}

func TestReplayFigure2DistinguishesInstances(t *testing.T) {
	// During re-execution the current state precisely identifies which
	// instance of a shared block is "executing" (paper §3).
	p := Figure2(60, 200)
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 50})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Build(set)
	r := core.NewReplayer(a, core.ConfigGlobalLocal)

	m := cpu.New(p)
	run := cfg.NewRunner(m, cfg.StarDBT)
	statesSeen := make(map[uint64]map[core.StateID]bool)
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
		st := r.Advance(e.To.Head, instrs)
		if st != core.NTE {
			if statesSeen[e.To.Head] == nil {
				statesSeen[e.To.Head] = make(map[core.StateID]bool)
			}
			statesSeen[e.To.Head][st] = true
		}
	}
	// At least one block address maps to multiple states over the run.
	multi := 0
	for _, states := range statesSeen {
		if len(states) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no block was ever mapped to more than one TBB state")
	}
}
