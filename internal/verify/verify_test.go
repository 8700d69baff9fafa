package verify

import (
	"context"
	"strings"
	"testing"

	"github.com/lsc-tea/tea/internal/asm"
	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

// recordedSet records a trace set from a seeded synthetic program, mirroring
// the core property-test generator so the verifier sees realistic shapes.
func recordedSet(t testing.TB, seed int64, strategy string, threshold int) (*trace.Set, *isa.Program) {
	t.Helper()
	spec, _ := workload.ByName("181.mcf")
	spec.Seed = seed
	spec.WorkScale = 8
	p := workload.Program(spec)
	s, ok := trace.NewStrategy(strategy, p, trace.Config{HotThreshold: threshold})
	if !ok {
		t.Fatalf("strategy %q", strategy)
	}
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return set, p
}

func hasRule(r *Report, rule string) bool {
	for _, f := range r.Findings {
		if f.Rule == rule {
			return true
		}
	}
	return false
}

func requireRule(t *testing.T, r *Report, rule string) {
	t.Helper()
	if !hasRule(r, rule) {
		t.Fatalf("expected a %s finding, got:\n%s", rule, r)
	}
}

// TestRecordedAutomataVerifyClean: every automaton a recorder produces, over
// every strategy, passes the full automaton rule family with zero findings
// (including the CFG rules against its own program image), and its compiled
// form proves structurally equivalent under every Table 4 configuration.
func TestRecordedAutomataVerifyClean(t *testing.T) {
	for _, strategy := range []string{"mret", "tt", "ctt", "mfet"} {
		for _, seed := range []int64{1, 7, 42} {
			set, p := recordedSet(t, seed, strategy, 8)
			a := core.Build(set)
			cache := cfg.NewCache(p, cfg.StarDBT)
			if r := Automaton(a, cache); !r.Clean() {
				t.Errorf("%s seed %d: automaton findings:\n%s", strategy, seed, r)
			}
			for _, lc := range []core.LookupConfig{
				core.ConfigGlobalLocal, core.ConfigGlobalNoLocal,
				core.ConfigNoGlobalLocal, {Local: true, LocalSize: 2, Fanout: 4},
			} {
				if r := Compiled(core.Compile(a, lc)); !r.Clean() {
					t.Errorf("%s seed %d %+v: compiled findings:\n%s", strategy, seed, lc, r)
				}
			}
		}
	}
}

// TestFigure2VerifiesClean: the paper's Figure 2 workflow end to end,
// including the serialized image through the Image lint.
func TestFigure2VerifiesClean(t *testing.T) {
	p := progs.Figure2(60, 200)
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 16})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Build(set)
	cache := cfg.NewCache(p, cfg.StarDBT)
	if r := Automaton(a, cache); !r.Clean() {
		t.Fatalf("automaton findings:\n%s", r)
	}
	data, err := core.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	if r := Image(data, cfg.NewCache(p, cfg.StarDBT), core.ConfigGlobalLocal); !r.Clean() {
		t.Fatalf("image findings:\n%s", r)
	}
}

// TestBadCFGLinkFlagged: a same-trace link whose label is not a successor of
// the source block in the image decodes fine but must trip A-CFG — the
// decoder gap the verifier exists to close.
func TestBadCFGLinkFlagged(t *testing.T) {
	set, p := recordedSet(t, 1, "mret", 8)
	var tr *trace.Trace
	for _, c := range set.Traces {
		if len(c.TBBs) >= 3 {
			tr = c
			break
		}
	}
	if tr == nil {
		t.Skip("no trace with 3 TBBs")
	}
	// Link TBB 0 to TBB 2, skipping a block: the label is TBB 2's head,
	// which TBB 0's terminator cannot reach in one step.
	if err := tr.TBBs[0].Link(tr.TBBs[2]); err != nil {
		t.Fatal(err)
	}
	a := core.Build(set)
	r := Automaton(a, cfg.NewCache(p, cfg.StarDBT))
	requireRule(t, r, "A-CFG")
}

// TestCrossTraceLinkFlagged: trace.Link refuses cross-trace links, so forge
// one directly through the Succs map; A-LABEL must catch it.
func TestCrossTraceLinkFlagged(t *testing.T) {
	set, p := recordedSet(t, 1, "mret", 8)
	if len(set.Traces) < 2 {
		t.Skip("need two traces")
	}
	// Forge backwards (a later trace into an earlier one) so Build resolves
	// the target to a real state and the cross-trace rule itself fires.
	from, to := set.Traces[1].Head(), set.Traces[0].Head()
	if from.Succs == nil {
		from.Succs = make(map[uint64]*trace.TBB)
	}
	from.Succs[to.Block.Head] = to
	a := core.Build(set)
	r := Automaton(a, cfg.NewCache(p, cfg.StarDBT))
	requireRule(t, r, "A-LABEL")
}

// TestWrongLabelFlagged: a transition whose label is not its target's block
// head trips A-LABEL.
func TestWrongLabelFlagged(t *testing.T) {
	set, _ := recordedSet(t, 1, "mret", 8)
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
	head := tr.TBBs[0]
	if head.Succs == nil {
		head.Succs = make(map[uint64]*trace.TBB)
	}
	head.Succs[head.Block.Head^0x1] = tr.TBBs[1] // label != target head
	a := core.Build(set)
	r := Automaton(a, nil)
	requireRule(t, r, "A-LABEL")
}

// TestLinearityFlagged: corrupting a TBB index after Build trips A-LIN.
func TestLinearityFlagged(t *testing.T) {
	set, _ := recordedSet(t, 1, "mret", 8)
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
	a := core.Build(set)
	tr.TBBs[1].Index = 7
	r := Automaton(a, nil)
	requireRule(t, r, "A-LIN")
}

// TestEntryMidTraceFlagged: swapping a trace's head mid-chain makes the
// entry table point at a mid-trace TBB; A-ENTRY (and A-LIN) must fire.
func TestEntryMidTraceFlagged(t *testing.T) {
	set, _ := recordedSet(t, 1, "mret", 8)
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
	a := core.Build(set)
	tr.TBBs[0], tr.TBBs[1] = tr.TBBs[1], tr.TBBs[0]
	r := Automaton(a, nil)
	requireRule(t, r, "A-ENTRY")
	requireRule(t, r, "A-LIN")
}

// TestForeignImageFlagged: verifying an automaton against a different
// program's image trips the A-IMG shape checks.
func TestForeignImageFlagged(t *testing.T) {
	set, _ := recordedSet(t, 1, "mret", 8)
	a := core.Build(set)
	spec, _ := workload.ByName("181.mcf")
	spec.Seed = 99
	spec.WorkScale = 8
	foreign := workload.Program(spec)
	r := Automaton(a, cfg.NewCache(foreign, cfg.StarDBT))
	if r.OK() {
		t.Fatalf("foreign image verified clean:\n%s", r)
	}
	if !hasRule(r, "A-IMG") && !hasRule(r, "A-CFG") {
		t.Fatalf("expected A-IMG/A-CFG findings, got:\n%s", r)
	}
}

// TestInescapableLoopWarns: a trace that is a pure self-loop (unconditional
// jump to its own head) can never return to NTE; A-NTE warns but the report
// stays OK — the replayer tolerates the shape.
func TestInescapableLoopWarns(t *testing.T) {
	p := asm.MustAssemble("selfloop", `
.entry main
main:
    nop
loop:
    addi eax, 1
    jmp  loop
`)
	cache := cfg.NewCache(p, cfg.StarDBT)
	m := cpu.New(p)
	run := cfg.NewRunner(m, cfg.StarDBT)
	var loop *cfg.Block
	for i := 0; i < 4 && loop == nil; i++ {
		e, ok, err := run.Next()
		if err != nil || !ok || e.To == nil {
			break
		}
		if e.To.Term.Op == isa.JMP && e.To.Term.Target == e.To.Head {
			loop = e.To
		}
	}
	if loop == nil {
		t.Fatal("self-loop block not discovered")
	}
	set := trace.NewSet("manual", p)
	tr, err := set.NewTrace(loop)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Head().Link(tr.Head()); err != nil {
		t.Fatal(err)
	}
	a := core.Build(set)
	r := Automaton(a, cache)
	requireRule(t, r, "A-NTE")
	if !r.OK() {
		t.Fatalf("A-NTE must be a warning, report has errors:\n%s", r)
	}
	if r.Clean() {
		t.Fatal("report unexpectedly clean")
	}
}

// TestReportRendering: findings render one per line in canonical sorted
// order with rule, severity and locus, so CI output diffs cleanly.
func TestReportRendering(t *testing.T) {
	r := &Report{}
	r.errf("C-ENT", 3, "ent[4]", "second")
	r.warnf("A-NTE", 1, "state 1", "third")
	r.errf("A-DET", 2, "state 2", "first")
	out := r.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %q", out)
	}
	if !strings.HasPrefix(lines[0], "A-DET error state 2: ") ||
		!strings.HasPrefix(lines[1], "A-NTE warn state 1: ") ||
		!strings.HasPrefix(lines[2], "C-ENT error ent[4]: ") {
		t.Fatalf("unexpected rendering:\n%s", out)
	}
	if r.OK() {
		t.Fatal("report with errors must not be OK")
	}
	if r.Errs() != 2 {
		t.Fatalf("Errs() = %d, want 2", r.Errs())
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "A-DET") {
		t.Fatalf("Err() = %v", err)
	}
}

// TestImageRejectsCorrupt: a decode rejection surfaces as a W-DEC finding
// carrying the byte offset from the DecodeError.
func TestImageRejectsCorrupt(t *testing.T) {
	p := progs.Figure2(40, 100)
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 16})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := core.Encode(core.Build(set))
	if err != nil {
		t.Fatal(err)
	}
	r := Image(data[:len(data)/2], cfg.NewCache(p, cfg.StarDBT), core.ConfigGlobalLocal)
	requireRule(t, r, "W-DEC")
	if r.OK() {
		t.Fatal("truncated image verified OK")
	}
}
