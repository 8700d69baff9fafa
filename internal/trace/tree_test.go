package trace

import (
	"context"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/progs"
)

func TestTreeSetBlocksCapStopsGrowth(t *testing.T) {
	p := progs.Figure2(64, 400)
	s := newTree("tt", false, p, Config{HotThreshold: 10, MaxSetBlocks: 6})
	set, _, err := Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The cap bounds total TBBs (one in-flight path may overshoot by a
	// block or two before the cap check fires).
	if set.NumTBBs() > 10 {
		t.Errorf("set grew to %d TBBs under cap 6", set.NumTBBs())
	}
}

func TestMRETSetBlocksCap(t *testing.T) {
	p := progs.Figure2(64, 400)
	s := NewMRET(p, Config{HotThreshold: 10, MaxSetBlocks: 4})
	set, _, err := Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if set.NumTBBs() > 4+DefaultConfig().MaxTraceBlocks {
		t.Errorf("MRET ignored the set cap: %d TBBs", set.NumTBBs())
	}
}

func TestTreeImmediateAnchorLinkNeedsNoHotness(t *testing.T) {
	// A side exit that lands straight on the anchor links immediately (no
	// duplication, no counter) — the tree gains the back edge on first
	// observation.
	p := progs.Figure2(60, 400)
	s := newTree("tt", false, p, Config{HotThreshold: 1 << 30}) // extensions never get hot
	set, _, err := Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Trees exist only if anchors got hot; with an impossible threshold
	// nothing is recorded at all.
	if set.Len() != 0 {
		t.Fatalf("recorded %d trees with impossible threshold", set.Len())
	}

	s2 := newTree("tt", false, p, Config{HotThreshold: 20})
	set2, _, err := Record(context.Background(), cpu.New(p), cfg.StarDBT, s2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// At least one non-head TBB links back to its anchor.
	found := false
	for _, tr := range set2.Traces {
		for _, b := range tr.TBBs[1:] {
			if succ, ok := b.Succs[tr.EntryAddr()]; ok && succ == tr.Head() {
				found = true
			}
		}
	}
	if !found {
		t.Error("no back links to anchors formed")
	}
}

func TestCTTLinksToInnerLoopHeaders(t *testing.T) {
	// A program with a nested loop: CTT paths may terminate at the inner
	// header instead of duplicating the tail back to the outer anchor.
	p := progs.Figure1(60, 300) // copy loop nested in round loop
	ctt := newTree("ctt", true, p, Config{HotThreshold: 20})
	set, _, err := Record(context.Background(), cpu.New(p), cfg.StarDBT, ctt, 0)
	if err != nil {
		t.Fatal(err)
	}
	tt := newTree("tt", false, p, Config{HotThreshold: 20})
	setTT, _, err := Record(context.Background(), cpu.New(p), cfg.StarDBT, tt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if set.NumTBBs() > setTT.NumTBBs() {
		t.Errorf("CTT (%d TBBs) bigger than TT (%d)", set.NumTBBs(), setTT.NumTBBs())
	}
}

func TestTreeRecordingStateVisible(t *testing.T) {
	p := progs.Figure2(60, 200)
	s := newTree("tt", false, p, Config{HotThreshold: 10})
	m := cpu.New(p)
	r := cfg.NewRunner(m, cfg.StarDBT)
	sawRecording := false
	for {
		e, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		s.Observe(e, false)
		if s.Recording() {
			sawRecording = true
		}
		if e.To == nil {
			break
		}
	}
	if !sawRecording {
		t.Error("tree selector never entered recording state")
	}
	if s.Recording() {
		t.Error("still recording after program end")
	}
}

func TestMFETNeverRecordsState(t *testing.T) {
	p := progs.Figure2(60, 200)
	s := NewMFET(p, Config{HotThreshold: 10})
	m := cpu.New(p)
	r := cfg.NewRunner(m, cfg.StarDBT)
	for {
		e, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		s.Observe(e, false)
		if s.Recording() {
			t.Fatal("MFET reported a Creating state")
		}
		if e.To == nil {
			break
		}
	}
	if s.Set().Len() == 0 {
		t.Error("MFET recorded nothing")
	}
}
