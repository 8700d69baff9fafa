package trace

import (
	"context"
	"testing"

	"github.com/lsc-tea/tea/internal/asm"
	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/workload"
)

// recordOn runs the named strategy over a program and returns the set.
func recordOn(t *testing.T, p *isa.Program, strategy string, c Config) (*Set, *RunInfo) {
	t.Helper()
	s, ok := NewStrategy(strategy, p, c)
	if !ok {
		t.Fatalf("unknown strategy %q", strategy)
	}
	set, info, err := Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	return set, info
}

func TestMRETFigure2Traces(t *testing.T) {
	p := progs.Figure2(60, 120)
	set, _ := recordOn(t, p, "mret", Config{HotThreshold: 50})

	// The scan loop must anchor a trace at $$header.
	header := p.Labels["header"]
	t1, ok := set.ByEntry(header)
	if !ok {
		t.Fatalf("no trace anchored at header; entries: %#x", set.Entries())
	}
	// T1 is header -> next -> back to header (the jne-not-taken path or the
	// inc path, whichever executed at recording time).
	if t1.Len() < 2 {
		t.Fatalf("T1 too short: %v", t1)
	}
	if t1.EntryAddr() != header {
		t.Errorf("T1 entry = 0x%x", t1.EntryAddr())
	}
	// The trace closes its cycle: the last TBB links back to the head.
	last := t1.TBBs[len(t1.TBBs)-1]
	if _, ok := last.Succs[header]; !ok {
		t.Errorf("T1 tail does not link back to header; succs=%v", last.SuccLabels())
	}

	// The other path out of the header's jne gets its own trace (the
	// paper's T2 anchored at $$inc or at $$next, depending on which path
	// recorded first).
	if set.Len() < 2 {
		t.Fatalf("expected at least 2 traces, got %v", set)
	}

	// Coverage sanity: all traces hold distinct TBBs.
	seen := make(map[*TBB]bool)
	for _, tr := range set.Traces {
		for _, b := range tr.TBBs {
			if seen[b] {
				t.Fatalf("TBB %v appears twice", b)
			}
			seen[b] = true
			if b.Trace != tr {
				t.Fatalf("TBB %v has wrong owner", b)
			}
		}
	}
}

func TestMRETThreshold(t *testing.T) {
	p := progs.Figure1(100, 2)
	// Only 2×100 = 200 iterations; a huge threshold records nothing.
	set, _ := recordOn(t, p, "mret", Config{HotThreshold: 100000})
	if set.Len() != 0 {
		t.Errorf("expected no traces below threshold, got %v", set)
	}
	set, _ = recordOn(t, p, "mret", Config{HotThreshold: 50})
	if set.Len() == 0 {
		t.Error("expected traces at threshold 50")
	}
}

func TestMRETMaxTraceBlocks(t *testing.T) {
	p := progs.Figure2(60, 120)
	set, _ := recordOn(t, p, "mret", Config{HotThreshold: 10, MaxTraceBlocks: 2})
	for _, tr := range set.Traces {
		if tr.Len() > 2 {
			t.Errorf("%v exceeds MaxTraceBlocks", tr)
		}
	}
}

func TestTBBNamesUsePaperNotation(t *testing.T) {
	p := progs.Figure2(60, 120)
	set, _ := recordOn(t, p, "mret", Config{HotThreshold: 50})
	t1, ok := set.ByEntry(p.Labels["header"])
	if !ok {
		t.Fatal("no header trace")
	}
	want := "$$T" + itoa(int(t1.ID)) + ".header"
	if got := t1.Head().Name(); got != want {
		t.Errorf("head name = %q, want %q", got, want)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestTTBuildsTreeWithBackEdges(t *testing.T) {
	p := progs.Figure2(60, 200)
	set, _ := recordOn(t, p, "tt", Config{HotThreshold: 20})
	header := p.Labels["header"]
	tree, ok := set.ByEntry(header)
	if !ok {
		t.Fatalf("no tree at header; entries %#x", set.Entries())
	}
	// Both sides of the jne eventually join the tree, so the tree grows
	// beyond the single recorded path.
	if tree.Len() < 3 {
		t.Errorf("tree only has %d TBBs; side exit never grew", tree.Len())
	}
	// Every leaf path links back to the anchor: at least two TBBs must have
	// the anchor as successor.
	back := 0
	for _, b := range tree.TBBs {
		if s, ok := b.Succs[header]; ok && s == tree.Head() {
			back++
		}
	}
	if back < 2 {
		t.Errorf("only %d back links to anchor", back)
	}
}

func TestCTTSmallerThanTT(t *testing.T) {
	// On a program with a branchy loop body, CTT should never be larger
	// than TT (it shares tails at loop headers).
	p := progs.Figure2(64, 400)
	tt, _ := recordOn(t, p, "tt", Config{HotThreshold: 20})
	ctt, _ := recordOn(t, p, "ctt", Config{HotThreshold: 20})
	if ctt.NumTBBs() > tt.NumTBBs() {
		t.Errorf("CTT (%d TBBs) larger than TT (%d TBBs)", ctt.NumTBBs(), tt.NumTBBs())
	}
}

func TestTreeFrozenAtCap(t *testing.T) {
	p := progs.Figure2(64, 400)
	set, _ := recordOn(t, p, "tt", Config{HotThreshold: 10, MaxTreeBlocks: 4})
	for _, tr := range set.Traces {
		if tr.Len() > 4 {
			t.Errorf("%v exceeds MaxTreeBlocks", tr)
		}
	}
}

func TestMFETFormsTracesFromProfile(t *testing.T) {
	p := progs.Figure2(60, 200)
	set, _ := recordOn(t, p, "mfet", Config{HotThreshold: 50})
	header := p.Labels["header"]
	tr, ok := set.ByEntry(header)
	if !ok {
		t.Fatalf("MFET recorded no trace at header")
	}
	// MFET follows the hottest successor: with values cycling 0..3 the
	// not-taken (non-inc) side dominates, so the trace follows jne to next.
	if tr.Len() < 2 {
		t.Errorf("MFET trace too short: %v", tr)
	}
}

func TestSetCodeBytesGrowsWithTraces(t *testing.T) {
	p := progs.Figure2(60, 200)
	set, _ := recordOn(t, p, "mret", Config{HotThreshold: 50})
	if set.Len() == 0 {
		t.Fatal("no traces")
	}
	if set.CodeBytes() == 0 {
		t.Error("CodeBytes = 0")
	}
	// Replication cost exceeds the raw instruction bytes (stubs, headers).
	var raw uint64
	for _, tr := range set.Traces {
		raw += tr.CodeBytes()
	}
	if set.CodeBytes() <= raw {
		t.Errorf("CodeBytes (%d) should exceed raw code bytes (%d)", set.CodeBytes(), raw)
	}
}

func TestSetEntriesSortedAndUnique(t *testing.T) {
	p := progs.Figure2(60, 200)
	set, _ := recordOn(t, p, "mret", Config{HotThreshold: 20})
	entries := set.Entries()
	for i := 1; i < len(entries); i++ {
		if entries[i-1] >= entries[i] {
			t.Fatal("entries unsorted or duplicated")
		}
	}
	for _, a := range entries {
		if _, ok := set.ByEntry(a); !ok {
			t.Fatalf("entry 0x%x unresolvable", a)
		}
	}
}

func TestNewTraceRejectsDuplicateEntry(t *testing.T) {
	p := progs.Figure1(10, 1)
	c := cfg.NewCache(p, cfg.StarDBT)
	b, err := c.BlockAt(p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	set := NewSet("x", p)
	if _, err := set.NewTrace(b); err != nil {
		t.Fatal(err)
	}
	if _, err := set.NewTrace(b); err == nil {
		t.Error("duplicate entry accepted")
	}
}

func TestLinkAcrossTracesErrors(t *testing.T) {
	p := progs.Figure1(10, 1)
	c := cfg.NewCache(p, cfg.StarDBT)
	b, _ := c.BlockAt(p.Entry)
	b2, _ := c.BlockAt(p.Labels["loop"])
	set := NewSet("x", p)
	t1, _ := set.NewTrace(b)
	t2, _ := set.NewTrace(b2)
	if err := t1.Head().Link(t2.Head()); err == nil {
		t.Error("cross-trace Link did not error")
	}
	if len(t1.Head().Succs) != 0 {
		t.Error("failed Link mutated the TBB")
	}
	// Same-trace linking still works and is idempotent.
	tb := t1.Append(b2)
	if err := t1.Head().Link(tb); err != nil {
		t.Fatalf("same-trace Link: %v", err)
	}
	if err := t1.Head().Link(tb); err != nil {
		t.Fatalf("repeated Link: %v", err)
	}
}

func TestRunInfoCounts(t *testing.T) {
	p := progs.Figure1(50, 4)
	s := NewMRET(p, Config{HotThreshold: 30})
	_, info, err := Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Steps == 0 || info.Edges == 0 || info.Blocks == 0 {
		t.Errorf("info = %+v", info)
	}
	if info.PinSteps < info.Steps {
		t.Errorf("PinSteps (%d) < Steps (%d)", info.PinSteps, info.Steps)
	}
}

func TestRecordRespectsMaxSteps(t *testing.T) {
	p := progs.Figure1(100, 100)
	s := NewMRET(p, Config{})
	m := cpu.New(p)
	_, info, err := Record(context.Background(), m, cfg.StarDBT, s, 500)
	if err != nil {
		t.Fatal(err)
	}
	if info.Steps > 700 { // a block or two of slack beyond the cap
		t.Errorf("Steps = %d, cap was 500", info.Steps)
	}
}

func TestStrategyNames(t *testing.T) {
	for _, name := range append(StrategyNames(), "mfet") {
		s, ok := NewStrategy(name, nil, Config{})
		if !ok || s.Name() != name {
			t.Errorf("NewStrategy(%q) = %v, %v", name, s, ok)
		}
	}
	if _, ok := NewStrategy("bogus", nil, Config{}); ok {
		t.Error("bogus strategy accepted")
	}
}

func TestFindByBlock(t *testing.T) {
	p := progs.Figure2(60, 200)
	set, _ := recordOn(t, p, "tt", Config{HotThreshold: 20})
	for _, tr := range set.Traces {
		for _, b := range tr.TBBs {
			found := tr.FindByBlock(b.Block.Head)
			ok := false
			for _, f := range found {
				if f == b {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("FindByBlock lost %v", b)
			}
		}
	}
}

func TestDefaultConfigApplied(t *testing.T) {
	c := Config{}.withDefaults()
	d := DefaultConfig()
	if c != d {
		t.Errorf("withDefaults = %+v, want %+v", c, d)
	}
	c2 := Config{HotThreshold: 7}.withDefaults()
	if c2.HotThreshold != 7 || c2.MaxTraceBlocks != d.MaxTraceBlocks {
		t.Errorf("partial defaults wrong: %+v", c2)
	}
}

// intoTrace makes MRET start a trace at a taken backward branch's target
// inside an existing trace: the x loop records [x, y] with y reached
// forward, then the second phase loops y → z → y, and y gets hot as a
// backward-branch target that is a non-entry TBB of x's trace.
const intoTrace = `
.entry main
main:
    movi ecx, 60
    movi esi, 60
x:
    addi eax, 1
    jmp  y
y:
    addi ebx, 1
    subi ecx, 1
    jgt  x
    subi esi, 1
    jgt  y
    halt
`

// TestFollowerColdWhenRecordingStarts holds the Follower doc comment's
// argument for needing no reset: whenever MRET starts recording, the
// follower's cursor is already in cold code — also when the new head lies
// inside an existing trace.
func TestFollowerColdWhenRecordingStarts(t *testing.T) {
	progsUnder := []*isa.Program{asm.MustAssemble("into-trace", intoTrace), progs.Figure2(60, 300)}
	for _, name := range []string{"176.gcc", "181.mcf", "252.eon"} {
		spec, _ := workload.ByName(name)
		p, err := workload.Generate(spec, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		progsUnder = append(progsUnder, p)
	}
	inside := 0
	for _, p := range progsUnder {
		s, _ := NewStrategy("mret", p, Config{HotThreshold: 12})
		f := Follower{Strategy: s}
		r := cfg.NewRunner(cpu.New(p), cfg.StarDBT)
		for starts := 0; ; {
			e, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			f.Observe(e)
			if !s.Recording() || s.Set().Len() == starts {
				continue
			}
			starts = s.Set().Len()
			if f.pos != nil {
				t.Fatalf("%s: recording started at 0x%x with the follower at %v", p.Name, e.To.Head, f.pos)
			}
			for _, tr := range s.Set().Traces[:starts-1] {
				if len(tr.FindByBlock(e.To.Head)) > 0 {
					inside++
				}
			}
		}
	}
	if inside == 0 {
		t.Error("no run started a trace inside an existing one")
	}
}
