package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/faultinject"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/serve"
	"github.com/lsc-tea/tea/internal/serve/client"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

// The differential oracle: one table and one fuzz target hold every
// executor to the reference Replayer, whose code shares nothing with the
// compiled kernels. checkReplay is the one runner: TestReferenceEventOracle
// calls it on every row of the table with cut points from a seeded rng,
// FuzzExecutors with cut points from its input bytes. The record, serve and
// engine legs run on the table's rows.

// newObs returns an obs context whose event ring holds capacity events,
// with identical labeled series registered on it, so registry comparisons
// cover label dimensions. A run may not drop events (asserted), so whole
// streams compare: a replay stages at most four events per edge (desync,
// probe, link, resync), and the record leg's two passes stage under two
// per stream edge.
func newObs(capacity int) *obs.Obs {
	o := obs.NewWith(obs.NewRegistry(), capacity+64)
	seedLabelSeries(o)
	return o
}

// seedLabelSeries registers identical labeled vec series on a registry.
func seedLabelSeries(o *obs.Obs) {
	v := o.Reg.CounterVec("tea_test_tenant_edges_total", "identity-test labeled series", "tenant")
	v.With("alpha").Add(3)
	v.With("beta").Add(5)
	g := o.Reg.GaugeVec("tea_test_image_gen", "identity-test labeled gauge", "image")
	g.With("img").Set(2)
}

// oracleRun is one replay's observable outcome.
type oracleRun struct {
	st     core.Stats
	cur    core.StateID
	events []obs.Event
}

func snapshotRun(t *testing.T, name string, o *obs.Obs, st core.Stats, cur core.StateID) oracleRun {
	t.Helper()
	return oracleRun{st, cur, ringEvents(t, name, o)}
}

// ringEvents snapshots the event ring, failing if it dropped any event (a
// comparison over a truncated ring would compare only suffixes).
func ringEvents(t *testing.T, name string, o *obs.Obs) []obs.Event {
	t.Helper()
	events, dropped := o.Tracer.Snapshot()
	if dropped != 0 {
		t.Fatalf("%s: event ring dropped %d events", name, dropped)
	}
	return events
}

// sameRun compares two outcomes. With exactProbe false, the Aux of
// CacheMissProbe events (the probe depth) is ignored: it counts slots of
// the compiled entry table on one side and nodes or slots of the reference
// replayer's container on the other.
func sameRun(t *testing.T, name string, want, got oracleRun, exactProbe bool) {
	t.Helper()
	sameStats(t, name, want, &got.st, got.cur)
	sameEvents(t, name, want.events, got.events, exactProbe)
}

func sameEvents(t *testing.T, name string, want, got []obs.Event, exactProbe bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", name, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if !exactProbe && w.Kind == obs.EvCacheMissProbe {
			g.Aux = w.Aux
		}
		if g != w {
			t.Fatalf("%s: event %d differs:\nwant %+v\ngot  %+v", name, i, w, g)
		}
	}
}

// sameStats compares a run's Stats and final state with the reference's.
func sameStats(t *testing.T, name string, want oracleRun, st *core.Stats, cur core.StateID) {
	t.Helper()
	if *st != want.st || cur != want.cur {
		t.Fatalf("%s: stats diverge:\nwant %+v cur=%d\ngot  %+v cur=%d", name, want.st, want.cur, *st, cur)
	}
}

// source draws the oracle's cut points: a seeded *rand.Rand in the table,
// the fuzz input in FuzzExecutors.
type source interface{ Intn(n int) int }

// byteSource reads cut points from fuzz bytes; once they run out every
// draw is 0.
type byteSource []byte

func (b *byteSource) Intn(n int) int {
	if len(*b) < 2 {
		return 0
	}
	v := int((*b)[0])<<8 | int((*b)[1])
	*b = (*b)[2:]
	return v % n
}

// draws returns k sizes in [1, max].
func draws(src source, k, max int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = 1 + src.Intn(max)
	}
	return out
}

// oracleLookups are the reference configurations every stream replays
// under. The compiled form takes only their local-cache settings; the
// cache-less ones also run the memoryless paths (SequentialReplay, the
// replay pipeline, SpecReplay + Merge), which replay without local caches.
var oracleLookups = []core.LookupConfig{
	{Global: core.GlobalHash},
	{Global: core.GlobalHash, Local: true},
	{Global: core.GlobalBTree},
	{Global: core.GlobalBTree, Local: true},
	{Global: core.GlobalList, Local: true, LocalSize: 2},
}

// oracleImage is one compiled form of a row under one lookup configuration.
type oracleImage struct {
	kind string
	c    *core.Compiled
}

// compileImages returns a's compiled forms under lc: plain, specialized on
// the row's clean stream, and specialized on a nil sample (every static
// candidate kept).
func compileImages(a *core.Automaton, lc core.LookupConfig, sample []core.Edge) []oracleImage {
	c := core.Compile(a, lc)
	return []oracleImage{{"plain", c}, {"sampled", core.Specialize(c, sample)}, {"static", core.Specialize(c, nil)}}
}

// replayOutcome is what checkReplay reports back to the table.
type replayOutcome struct {
	want    oracleRun
	strided bool // an AdvanceBatch consumed edges through a fused cycle
}

// checkReplay holds every replay executor to the reference Replayer on one
// stream under one lookup configuration. AdvanceBatch runs on each image,
// cut into batches drawn from src, obs on and off; with obs on its events
// must equal the reference's. Cache-less configurations then run, on each
// image: SequentialReplay, obs on and off; two replay pipelines at once
// over the shared image (one obs on, one off; workers, chunk size and ring
// depth drawn from src); SpecReplay + Merge over drawn segment sizes; and
// Merge of one drawn segment from a drawn true entry (state, desynced),
// obs on and off, against a reference Replayer forced to that entry. The
// compiled obs-on runs of an image must agree exactly, probe depths and
// registry JSON included.
func checkReplay(t *testing.T, name string, a *core.Automaton, lc core.LookupConfig, imgs []oracleImage, stream []core.Edge, src source) replayOutcome {
	t.Helper()
	ref := core.NewReplayer(a, lc)
	o := newObs(4 * len(stream))
	ref.SetObs(o)
	for _, e := range stream {
		ref.Advance(e.Label, e.Instrs)
	}
	out := replayOutcome{want: snapshotRun(t, name+" reference", o, *ref.Stats(), ref.Cur())}
	want := out.want
	// Every obs-on run must stage exactly the reference's events, so a ring
	// of that size holds them all; a run staging more drops some and fails.
	evCap := len(want.events)

	type obsRun struct {
		run oracleRun
		reg string
	}
	batchRuns := make([]obsRun, len(imgs))
	batches := append([]int{1}, draws(src, 2, 600)...)
	for i, img := range imgs {
		for _, on := range []bool{true, false} {
			r := core.NewCompiledReplayer(img.c)
			var o *obs.Obs
			if on {
				o = newObs(evCap)
				r.SetObs(o)
			}
			for at, j := 0, 0; at < len(stream); j++ {
				n := min(batches[j%len(batches)], len(stream)-at)
				r.AdvanceBatch(stream[at : at+n])
				at += n
			}
			if r.StrideEdges() != 0 && img.kind == "plain" {
				t.Fatalf("%s: an unspecialized image consumed %d edges through stride cycles", name, r.StrideEdges())
			}
			out.strided = out.strided || r.StrideEdges() != 0
			bname := fmt.Sprintf("%s %s batch %v obs=%v", name, img.kind, batches, on)
			if !on {
				sameStats(t, bname, want, r.Stats(), r.Cur())
				continue
			}
			got := snapshotRun(t, bname, o, *r.Stats(), r.Cur())
			sameRun(t, bname, want, got, false)
			batchRuns[i] = obsRun{got, registryComparable(t, o, false)}
		}
	}
	if lc.Local {
		return out // the memoryless paths replay cache-less only
	}
	// Shape knobs are drawn once for every image, so a fuzz input's cut
	// points do not depend on how many images there are. The first
	// pipeline runs obs on, the second off.
	var pcfgs [2]Config
	for i := range pcfgs {
		pcfgs[i] = Config{Workers: 1 + src.Intn(4), ChunkEdges: 1 + src.Intn(2048), Depth: 4 << src.Intn(4)}
	}
	segs := draws(src, 3, 1+src.Intn(600))
	var entry struct {
		at, n int
		cur   core.StateID
		des   bool
	}
	if len(stream) > 0 {
		entry.at = src.Intn(len(stream))
		entry.n = 1 + src.Intn(min(len(stream)-entry.at, 400))
		entry.cur, entry.des = core.StateID(src.Intn(a.NumStates())), src.Intn(3) == 0
	}
	for i, img := range imgs {
		iname := name + " " + img.kind
		batch := batchRuns[i]
		o := newObs(evCap)
		st, cur := core.SequentialReplay(img.c, stream, o)
		got := snapshotRun(t, iname+" sequential", o, st, cur)
		sameRun(t, iname+" sequential", want, got, false)
		sameRun(t, iname+" sequential vs batch", batch.run, got, true)
		sameRegistry(t, iname+" sequential vs batch", batch.reg, registryComparable(t, o, false))
		st, cur = core.SequentialReplay(img.c, stream, nil)
		sameStats(t, iname+" sequential obs=false", want, &st, cur)

		// The two pipelines run at once over the one image: under -race
		// that proves a Compiled is safely shared read-only.
		type pipeRun struct {
			st  core.Stats
			cur core.StateID
			m   Metrics
		}
		var runs [2]pipeRun
		var wg sync.WaitGroup
		pcs := pcfgs
		pcs[0].Obs = newObs(evCap)
		for k, pc := range pcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pl := NewReplay(img.c, pc)
				feedAll(pl, stream)
				runs[k].st, runs[k].cur = pl.Barrier()
				runs[k].m = pl.Metrics()
				pl.Close()
			}()
		}
		wg.Wait()
		for k, pc := range pcs {
			on := pc.Obs != nil
			pname := fmt.Sprintf("%s pipeline obs=%v w=%d chunk=%d depth=%d", iname, on, pc.Workers, pc.ChunkEdges, pc.Depth)
			if m := runs[k].m; m.Published != m.Drained {
				t.Fatalf("%s: published %d chunks, drained %d", pname, m.Published, m.Drained)
			}
			if !on {
				sameStats(t, pname, want, &runs[k].st, runs[k].cur)
				continue
			}
			got := snapshotRun(t, pname, pc.Obs, runs[k].st, runs[k].cur)
			sameRun(t, pname, want, got, false)
			sameRun(t, pname+" vs batch", batch.run, got, true)
			sameRegistry(t, pname+" vs batch", batch.reg, registryComparable(t, pc.Obs, false))
		}

		st, cur = specMerge(img.c, stream, segs)
		sameStats(t, fmt.Sprintf("%s SpecReplay+Merge %v", iname, segs), want, &st, cur)

		if len(stream) > 0 {
			checkTrueEntry(t, iname, a, lc, img.c, stream[entry.at:entry.at+entry.n], entry.at, entry.cur, entry.des)
		}
	}
	return out
}

// sameRegistry compares two registry JSON exports.
func sameRegistry(t *testing.T, name, want, got string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: registry JSON diverges:\nwant %s\ngot  %s", name, want, got)
	}
}

// feedAll pushes a label stream through a replay pipeline in uneven bursts
// so partial chunks and Flush boundaries get exercised too.
func feedAll(p *ReplayPipeline, stream []core.Edge) {
	for i := 0; i < len(stream); {
		n := min(1+(i*7)%97, len(stream)-i)
		p.Feed(stream[i : i+n])
		i += n
	}
}

// specMerge replays stream as the obs-off pipeline does, in one goroutine:
// each segment, its size cycled from segs, is scanned speculatively from
// (NTE, in-sync) by SpecReplay, then reconciled in order by Merge.
func specMerge(c *core.Compiled, stream []core.Edge, segs []int) (core.Stats, core.StateID) {
	var rc core.Reconciler
	var sr core.SpecResult
	var total core.Stats
	cur, des := core.NTE, false
	for i, j := 0, 0; i < len(stream); j++ {
		seg := stream[i:min(i+segs[j%len(segs)], len(stream))]
		c.SpecReplay(seg, &sr)
		var d core.Stats
		d, cur, des = rc.Merge(c, seg, 0, cur, des, &sr, nil)
		total.Add(&d)
		i += len(seg)
	}
	return total, cur
}

// checkTrueEntry merges one segment, stamped from edge at, from the true
// entry (cur, des) — any state, NTE included, desynced or not — obs on and
// off, and holds the Stats, exit state, desync flag and merged events to a
// reference Replayer forced to that entry.
func checkTrueEntry(t *testing.T, name string, a *core.Automaton, lc core.LookupConfig, c *core.Compiled, seg []core.Edge, at int, cur core.StateID, des bool) {
	t.Helper()
	name = fmt.Sprintf("%s Merge [%d,%d) from (%d,%v)", name, at, at+len(seg), cur, des)
	ref := core.NewReplayer(a, lc)
	ref.ForceState(cur)
	ref.ForceDesync(des)
	o := newObs(4 * len(seg))
	o.AdvanceEdges(uint64(at))
	ref.SetObs(o)
	for _, e := range seg {
		ref.Advance(e.Label, e.Instrs)
	}
	want := snapshotRun(t, name+" reference", o, *ref.Stats(), ref.Cur())
	var rc core.Reconciler
	var sr core.SpecResult
	var merged []obs.Event
	c.SpecReplayObs(seg, uint64(at), &sr)
	st, gcur, ondes := rc.Merge(c, seg, uint64(at), cur, des, &sr, &merged)
	sameRun(t, name+" obs=true", want, oracleRun{st, gcur, merged}, false)
	c.SpecReplay(seg, &sr)
	st, gcur, offdes := rc.Merge(c, seg, 0, cur, des, &sr, nil)
	sameStats(t, name+" obs=false", want, &st, gcur)
	if ondes != ref.Desynced() || offdes != ref.Desynced() {
		t.Fatalf("%s: exit desynced %v (obs on), %v (obs off), reference %v", name, ondes, offdes, ref.Desynced())
	}
}

// oracleCase is one row of the oracle table: an automaton, the clean
// stream its stride tables are specialized on, the named streams replayed
// against it, and its compiled images per oracleLookups entry. A row
// recorded from a program also carries the program and its record-mode
// stream, for the record, serve-image and engine legs.
type oracleCase struct {
	name    string
	prog    *isa.Program // nil for the hand-built automaton
	a       *core.Automaton
	clean   []core.Edge
	edges   []cfg.Edge
	instrs  []uint64
	streams []oracleStream
	imgs    [][]oracleImage
}

type oracleStream struct {
	name   string
	edges  []core.Edge
	desync bool // the stream must desync and resync
}

// streamFaults are faultinject's stream perturbations: n events dropped,
// adjacently swapped or duplicated, and PerturbStream's seeded mix, which
// ignores n.
var streamFaults = []struct {
	name string
	f    func(j *faultinject.Injector, s []faultinject.BlockEvent, n int) []faultinject.BlockEvent
}{
	{"drop", (*faultinject.Injector).DropEvents},
	{"swap", (*faultinject.Injector).SwapEvents},
	{"duplicate", (*faultinject.Injector).DuplicateEvents},
	{"mixed", func(j *faultinject.Injector, s []faultinject.BlockEvent, _ int) []faultinject.BlockEvent {
		return j.PerturbStream(s)
	}},
}

// faultEvents applies one stream fault, seeded, to a label stream.
func faultEvents(stream []core.Edge, fault int, seed int64, n int) []core.Edge {
	events := make([]faultinject.BlockEvent, len(stream))
	for i, e := range stream {
		events[i] = faultinject.BlockEvent(e)
	}
	events = streamFaults[fault].f(faultinject.New(seed), events, n)
	out := make([]core.Edge, len(events))
	for i, e := range events {
		out[i] = core.Edge(e)
	}
	return out
}

// programCase records the named workload's automaton and stream, and
// derives the perturbed streams (every 2nd/5th/7th label corrupted), the
// first faults of streamFaults and, with programs, the streams of the
// program perturbed by faultinject.PerturbProgram (layout shifted, a block
// mutated or erased; a perturbation that crashes the guest yields no
// stream), replayed against the original automaton.
func programCase(t *testing.T, prog string, faults int, programs bool) oracleCase {
	t.Helper()
	p := workloadProgram(t, prog, 3)
	edges, instrs := captureEdges(t, p)
	clean, _ := labelStream(edges, instrs)
	oc := withStreams(oracleCase{name: prog, prog: p, a: buildAutomaton(t, p), clean: clean, edges: edges, instrs: instrs}, true, faults)
	if !programs {
		return oc
	}
	var steps uint64
	for _, n := range instrs {
		steps += n
	}
	for _, fault := range []faultinject.ProgramFault{faultinject.ShiftLayout, faultinject.MutateBlock, faultinject.EraseBlock} {
		pp, err := faultinject.New(1).PerturbProgram(p, fault)
		if err != nil {
			t.Fatalf("%s: %v: %v", prog, fault, err)
		}
		// A mutated program may loop where the original halted: its run
		// stops at twice the original's length.
		if edges, instrs, err := tryCapture(pp, 2*steps); err == nil {
			s, _ := labelStream(edges, instrs)
			oc.streams = append(oc.streams, oracleStream{name: fault.String(), edges: s})
		}
	}
	return oc
}

// withStreams fills a case's streams from its clean stream: the stream
// itself, an empty one and its first three edges; perturbed adds the
// periodic label corruptions, faults the first faults of streamFaults.
func withStreams(c oracleCase, perturbed bool, faults int) oracleCase {
	c.streams = []oracleStream{{name: "clean", edges: c.clean}, {name: "empty"}, {name: "short", edges: c.clean[:3]}}
	if perturbed {
		for _, n := range []int{2, 5, 7} {
			c.streams = append(c.streams, oracleStream{fmt.Sprintf("perturb%d", n), perturb(c.clean, n), true})
		}
	}
	for i, f := range streamFaults[:faults] {
		c.streams = append(c.streams, oracleStream{f.name, faultEvents(c.clean, i, int64(5+i), max(1, len(c.clean)/50)), true})
	}
	return c
}

// handBuiltCase builds, block by block, an automaton that holds every
// slot shape the compiled form distinguishes, and a random walk over its
// blocks. Trace T1 (entry 0x100) holds complete successor rows whose slots
// are in-trace hits, a link (0x110's fall-through enters T2) and exits;
// an indirect state with five in-trace transitions; and a direct state
// whose in-trace label (0x200) is neither its branch target nor its
// fall-through, so it keeps the span slots. T2 (entry 0x120) starts at a
// branch whose target equals its fall-through and links back to T1. T3
// (entry 0x300) is an indirect state with no transitions. One edge in ten
// carries no instructions, and one in thirty is a label off the walk.
func handBuiltCase(t *testing.T) oracleCase {
	t.Helper()
	type blk struct {
		op     isa.Op
		target uint64
		succs  []uint64 // labels the walk may emit after the block
	}
	blocks := map[uint64]blk{
		0x100: {isa.JCC, 0x200, []uint64{0x200, 0x110}},
		0x110: {isa.JCC, 0x300, []uint64{0x300, 0x120}},
		0x120: {isa.JCC, 0x130, []uint64{0x130}},
		0x130: {isa.JMP, 0x100, []uint64{0x100}},
		0x200: {isa.JCC, 0x100, []uint64{0x100, 0x210}},
		0x210: {isa.JMP, 0x120, []uint64{0x120}},
		0x300: {isa.JIND, 0, []uint64{0x100, 0x110, 0x200, 0x400, 0x500}},
		0x400: {isa.NOP, 0, []uint64{0x410}},
		0x410: {isa.JMP, 0x100, []uint64{0x100}},
		0x500: {isa.JMP, 0x110, []uint64{0x110, 0x200}},
	}
	const instrs = 4
	cb := map[uint64]*cfg.Block{}
	for head, b := range blocks {
		// The terminator is the block's last 4-byte instruction, so the
		// fall-through is head+16: 0x120's branch target is its own
		// fall-through, 0x400's NOP falls into 0x410.
		term := &isa.Instr{Addr: head + 12, Op: b.op, Target: b.target, Size: 4}
		cb[head] = &cfg.Block{Head: head, End: term.Addr, NumInstrs: instrs, Bytes: 16, Term: term}
	}
	set := trace.NewSet("manual", nil)
	newTrace := func(heads ...uint64) []*trace.TBB {
		tr, err := set.NewTrace(cb[heads[0]])
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range heads[1:] {
			tr.Append(cb[h])
		}
		return tr.TBBs
	}
	link := func(from, to *trace.TBB) {
		if err := from.Link(to); err != nil {
			t.Fatal(err)
		}
	}
	t1 := newTrace(0x100, 0x200, 0x110, 0x300, 0x400, 0x500)
	a1, b1, c1, d1, g1, j1 := t1[0], t1[1], t1[2], t1[3], t1[4], t1[5]
	link(a1, b1)
	link(a1, c1)
	link(b1, a1)
	link(c1, d1)
	for _, to := range []*trace.TBB{a1, c1, b1, g1, j1} {
		link(d1, to)
	}
	link(j1, b1)
	t2 := newTrace(0x120, 0x130)
	link(t2[0], t2[1])
	newTrace(0x300)

	rng := rand.New(rand.NewSource(22))
	heads := make([]uint64, 0, len(blocks))
	for h := range blocks {
		heads = append(heads, h)
	}
	slices.Sort(heads)
	walk := make([]core.Edge, 0, 20000)
	at := uint64(0x100)
	walk = append(walk, core.Edge{Label: at})
	for len(walk) < cap(walk) {
		succs := blocks[at].succs
		next := succs[rng.Intn(len(succs))]
		switch rng.Intn(30) {
		case 0:
			next = heads[rng.Intn(len(heads))]
		case 1:
			next = 0xdead0000 + uint64(rng.Intn(4))
		}
		n := uint64(instrs)
		if rng.Intn(10) == 0 {
			n = 0
		}
		walk = append(walk, core.Edge{Label: next, Instrs: n})
		if _, ok := blocks[next]; !ok {
			next = 0x100 // control comes back at T1's entry
			walk = append(walk, core.Edge{Label: next, Instrs: 1})
		}
		at = next
	}
	return withStreams(oracleCase{name: "hand-built", a: core.Build(set), clean: walk}, false, len(streamFaults))
}

// requireSlotShapes fails unless c holds every slot shape the hand-built
// case promises: in-trace, link and exit row slots, a direct state keeping
// its span slots, and an indirect state whose span runs past the slots.
func requireSlotShapes(t *testing.T, c *core.Compiled) {
	t.Helper()
	v := c.Audit()
	kinds := map[uint8]bool{}
	offPair, longSpan := false, false
	for i, st := range v.States {
		kinds[st.Kind0], kinds[st.Kind1] = true, true
		tbb := c.Automaton().State(core.StateID(i)).TBB
		if tbb == nil {
			continue
		}
		longSpan = longSpan || tbb.Block.Term.IsIndirect() && v.Off[i+1]-v.Off[i] > 2
		offPair = offPair || tbb.Block.Head == 0x500 && st.Lab0 == 0x200 && st.Kind0 == core.AuditSlotTrace
	}
	if !kinds[core.AuditSlotTrace] || !kinds[core.AuditSlotLink] || !kinds[core.AuditSlotExit] || !offPair || !longSpan {
		t.Fatalf("hand-built image lacks a slot shape: kinds %v, off-pair direct state %v, indirect span > 2 %v", kinds, offPair, longSpan)
	}
}

var (
	oracleOnce  sync.Once
	oracleRows  []oracleCase
	oracleBuilt bool
)

// oracleCases builds the table's rows once per process, each with its
// compiled images per lookup: the seeded 181.mcf, with every stream fault
// and perturbed program; 176.gcc, the trace-rich stream, with dropped and
// swapped events; 901.steady, whose stride tables fire, without faults (in
// a loop nest that tight a dropped or swapped event mostly skips or
// reorders whole iterations, which never desyncs); and the hand-built
// automaton with every stream fault.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	oracleOnce.Do(func() {
		rows := []oracleCase{
			programCase(t, "181.mcf", len(streamFaults), true),
			programCase(t, "176.gcc", 2, false),
			programCase(t, "901.steady", 0, false),
			handBuiltCase(t),
		}
		for i := range rows {
			for _, lc := range oracleLookups {
				rows[i].imgs = append(rows[i].imgs, compileImages(rows[i].a, lc, rows[i].clean))
			}
		}
		requireSlotShapes(t, rows[3].imgs[0][0].c)
		oracleRows, oracleBuilt = rows, true
	})
	if !oracleBuilt {
		t.Fatal("oracle rows failed to build")
	}
	return oracleRows
}

// TestReferenceEventOracle is the repository's one equivalence check. Its
// row/<row> subtests run checkRow on each row in parallel: every stream —
// clean, empty, short, perturbed, faultinject stream faults and perturbed
// programs — through checkReplay under every oracleLookups configuration,
// and per configuration the serve leg (checkServe) and the engine leg
// (checkEngine), then the record leg (checkRecord) on the row's program.
// Its record/<workload> subtests run the record leg on every benchmark
// workload under every selection strategy.
func TestReferenceEventOracle(t *testing.T) {
	var mu sync.Mutex
	var strided, quiet, spliceDesyncs bool
	t.Run("row", func(t *testing.T) {
		for i, oc := range oracleCases(t) {
			t.Run(oc.name, func(t *testing.T) {
				t.Parallel()
				s, q, d := checkRow(t, &oc, rand.New(rand.NewSource(int64(16+i))))
				mu.Lock()
				strided, quiet, spliceDesyncs = strided || s, quiet || q, spliceDesyncs || d
				mu.Unlock()
			})
		}
	})
	if !strided || !quiet || !spliceDesyncs {
		t.Fatalf("oracle unexercised: AdvanceBatch through a fused stride cycle %v, an obs-on record chunk on the quiet path %v, a spliced record stream that desyncs and resyncs %v",
			strided, quiet, spliceDesyncs)
	}
	t.Run("record", func(t *testing.T) {
		for i, spec := range workload.Benchmarks() {
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				recordWorkload(t, i, spec)
			})
		}
	})
}

// checkRow runs one row of the table: checkReplay on every stream under
// every lookup configuration, then per configuration the serve leg and,
// on a program row, the engine leg, and last, on a program row, the
// record leg: mret on the clean stream, obs on, at a chunk size small
// enough for quiet chunks, and on a spliced one that drops a quarter of it
// mid-way, obs on and off. It reports whether an AdvanceBatch consumed edges
// through a fused stride cycle, whether an obs-on record pipeline accepted
// a quiet chunk, and whether a spliced record stream desynced and
// resynced.
func checkRow(t *testing.T, oc *oracleCase, rng *rand.Rand) (strided, quiet, spliceDesyncs bool) {
	for li, lc := range oracleLookups {
		wants := make([]oracleRun, len(oc.streams))
		for si, os := range oc.streams {
			name := fmt.Sprintf("%s/%s/%v", oc.name, os.name, lc)
			out := checkReplay(t, name, oc.a, lc, oc.imgs[li], os.edges, rng)
			if os.desync && (out.want.st.Desyncs == 0 || out.want.st.Resyncs == 0) {
				t.Fatalf("%s: perturbed stream never desyncs and resyncs: %+v", name, out.want.st)
			}
			strided = strided || out.strided
			wants[si] = out.want
		}
		checkServe(t, oc, lc, wants, rng)
		if oc.prog != nil {
			checkEngine(t, oc, lc)
		}
	}
	if oc.prog == nil {
		return strided, false, false
	}
	cut0, cut1 := len(oc.edges)/3, len(oc.edges)/3+len(oc.edges)/4
	spliced := recordStream{
		append(slices.Clip(oc.edges[:cut0]), oc.edges[cut1:]...),
		append(slices.Clip(oc.instrs[:cut0]), oc.instrs[cut1:]...),
	}
	tc := trace.Config{HotThreshold: 8}
	pc := Config{Workers: 1 + rng.Intn(4), ChunkEdges: 128, Depth: 4 << rng.Intn(3)} // chunks small enough to go quiet
	m, _ := checkRecord(t, "record "+oc.name+"/clean", oc.prog, "mret", tc, recordStream{oc.edges, oc.instrs}, pc, true)
	for _, on := range []bool{true, false} {
		pc = Config{Workers: 1 + rng.Intn(4), ChunkEdges: 1 + rng.Intn(2048), Depth: 4 << rng.Intn(3)}
		_, st := checkRecord(t, "record "+oc.name+"/spliced", oc.prog, "mret", tc, spliced, pc, on)
		spliceDesyncs = spliceDesyncs || st.Desyncs != 0 && st.Resyncs != 0
	}
	return strided, m.QuietChunks != 0, spliceDesyncs
}

// recordStream is a record-mode stream: edges and their instruction counts.
type recordStream struct {
	edges  []cfg.Edge
	instrs []uint64
}

// recordStrategies are every selection strategy the recorder accepts:
// mret, whose record pipeline accepts chunks on the quiet path once its
// trace set saturates, and ctt, tt and mfet, whose pipelines run every
// chunk through the sequential recorder.
var recordStrategies = []string{"mret", "ctt", "tt", "mfet"}

// recordWorkload runs checkRecord on one benchmark workload, generated at
// 150k instructions and captured under pin, with every selection strategy
// at the paper's hot threshold. Worker count, chunk size and obs are drawn
// per strategy, so chunk boundaries land at arbitrary stream positions,
// mid-trace and mid-recording included, and every strategy runs obs on
// and off across the workloads.
func recordWorkload(t *testing.T, i int, spec workload.Spec) {
	p, err := workload.Generate(spec, 150_000)
	if err != nil {
		t.Fatalf("%s: generate: %v", spec.Name, err)
	}
	capt := teatool.NewEdgeCaptureTool()
	if _, err := pin.New().Run(p, capt, 0); err != nil {
		t.Fatalf("%s: capture run: %v", spec.Name, err)
	}
	rs := recordStream{capt.Edges(), capt.Instrs()}
	rng := rand.New(rand.NewSource(int64(i)))
	for si, strat := range recordStrategies {
		pc := Config{Workers: 1 + rng.Intn(4), ChunkEdges: 1 + rng.Intn(2048), Depth: 4 << rng.Intn(3)}
		checkRecord(t, spec.Name+"/"+strat, p, strat, trace.Config{HotThreshold: 12}, rs, pc, (i+si)%2 == 0)
	}
}

// checkRecord holds the record pipeline (configuration pc, obs attached
// when on) and the offline build — trace.Follower driving a third copy of
// the strategy, then core.Build — to per-edge core.Recorder.Observe over
// two passes of one record stream. After each pass all must agree on
// Stats, the recording state, the TBB count and the core.Encode bytes;
// pass 1 is event-heavy, pass 2 saturated, so quiet chunks engage, and it
// ends in an accounted tail. With obs on, the event streams and the
// registry JSON (wall-clock span nanoseconds zeroed) must match too. It
// returns the pipeline's metrics and the final Stats.
func checkRecord(t *testing.T, name string, p *isa.Program, strat string, tc trace.Config, rs recordStream, pc Config, on bool) (Metrics, core.Stats) {
	t.Helper()
	newStrat := func() trace.Strategy {
		s, ok := trace.NewStrategy(strat, p, tc)
		if !ok {
			t.Fatalf("unknown strategy %q", strat)
		}
		return s
	}
	name = fmt.Sprintf("%s obs=%v w=%d chunk=%d", name, on, pc.Workers, pc.ChunkEdges)
	seq := core.NewRecorder(newStrat(), core.ConfigGlobalNoLocal)
	var seqO *obs.Obs
	if on {
		seqO, pc.Obs = newObs(2*len(rs.edges)), newObs(2*len(rs.edges))
		seq.SetObs(seqO)
	}
	pl := NewRecord(newStrat(), pc)
	defer pl.Close()
	off := trace.Follower{Strategy: newStrat()}
	var got core.Stats
	for pass := 1; pass <= 2; pass++ {
		for k := range rs.edges {
			seq.Observe(rs.edges[k], rs.instrs[k])
			off.Observe(rs.edges[k])
		}
		pl.Feed(rs.edges, rs.instrs)
		if pass == 2 {
			seq.Replayer().AccountOnly(7)
			pl.AccountTail(7)
		}
		got = pl.Barrier()
		label := fmt.Sprintf("%s pass %d", name, pass)
		if want := *seq.Replayer().Stats(); got != want {
			t.Fatalf("%s: stats diverge:\n  sequential: %+v\n  pipeline:   %+v", label, want, got)
		}
		rec := pl.Recorder()
		if s, b := seq.State(), rec.State(); s != b {
			t.Fatalf("%s: recording state %v (sequential) vs %v (pipeline)", label, s, b)
		}
		if s, b := seq.Set().NumTBBs(), rec.Set().NumTBBs(); s != b {
			t.Fatalf("%s: trace set %d TBBs (sequential) vs %d (pipeline)", label, s, b)
		}
		se, pe, oe := mustEncode(t, seq.Automaton()), mustEncode(t, rec.Automaton()), mustEncode(t, core.Build(off.Strategy.Set()))
		if !bytes.Equal(se, pe) {
			t.Fatalf("%s: encoded automata differ (%d vs %d bytes)", label, len(se), len(pe))
		}
		if !bytes.Equal(se, oe) {
			t.Fatalf("%s: offline build differs from the recorder (%d vs %d bytes)", label, len(se), len(oe))
		}
	}
	m := pl.Metrics()
	if m.Published != m.Drained {
		t.Fatalf("%s: published %d chunks, drained %d", name, m.Published, m.Drained)
	}
	if on {
		seq.Replayer().FlushObs()
		sameEvents(t, name, ringEvents(t, name, seqO), ringEvents(t, name, pc.Obs), true)
		sameRegistry(t, name, registryDeterministic(t, seqO), registryDeterministic(t, pc.Obs))
	}
	return m, got
}

func mustEncode(t *testing.T, a *core.Automaton) []byte {
	t.Helper()
	data, err := core.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkServe hosts the row's automaton on a server whose sessions replay
// under lc and replays each stream through client.Replay over net.Pipe, in
// a batch size drawn from src. The first connection of every session
// carries one drawn fault; later connections are clean, so the client
// resumes from the server's watermark. The faults are a
// faultinject.FaultyConn dropping or reordering one Edges frame of the
// first window, and a retransmission (dupConn) that delivers the stream's
// last Edges frame twice. Every session must end in a *serve.Error or in
// the reference's Stats and final state (wants, one per stream), and the
// server must apply each edge at most once, every edge of a completed
// session exactly once.
func checkServe(t *testing.T, oc *oracleCase, lc core.LookupConfig, wants []oracleRun, src source) {
	t.Helper()
	s := serve.NewServer(serve.Config{Lookup: lc, IdleTimeout: time.Second})
	if err := s.Host(oc.name, oc.prog, oc.a); err != nil {
		t.Fatalf("%s/%v: Host: %v", oc.name, lc, err)
	}
	defer s.Shutdown(context.Background())
	applied := s.Obs().Reg.Counter("tea_serve_edges_total", "")
	for si, os := range oc.streams {
		if len(os.edges) < 2 {
			continue
		}
		// At least two Edges frames, and a drop or reorder target before
		// the last one: it lands inside the first window (32 KiB holds more
		// than four frames of 256 edges), never on the frame its Sync
		// follows.
		batch := 1 + src.Intn(min(256, len(os.edges)/2))
		frames := (len(os.edges) + batch - 1) / batch
		fault := src.Intn(3)
		target := 2 + src.Intn(min(frames-1, 4)) // frames 0 and 1 are Hello and Open
		first := func(c net.Conn) net.Conn {
			if fault == 2 {
				return &dupConn{Conn: c, target: frames - 1}
			}
			wf := []faultinject.WireFault{faultinject.WireDrop, faultinject.WireReorder}[fault]
			return faultinject.NewFaultyConn(c, faultinject.New(int64(target)), wf, target, time.Millisecond)
		}
		name := fmt.Sprintf("%s/%s/%v serve batch=%d fault=%d@%d", oc.name, os.name, lc, batch, fault, target)
		dials := 0
		cl, err := client.New(client.Config{
			Tenant:      "oracle",
			Seed:        int64(si + 1),
			Timeout:     time.Second,
			BaseBackoff: time.Millisecond,
			Dial: func() (net.Conn, error) {
				cli, srv := net.Pipe()
				go s.ServeConn(srv)
				if dials++; dials == 1 {
					return first(cli), nil
				}
				return cli, nil
			},
		})
		if err != nil {
			t.Fatalf("%s: client: %v", name, err)
		}
		before := applied.Value()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		st, final, err := cl.Replay(ctx, oc.name, os.edges, batch)
		cancel()
		cl.Close()
		n := applied.Value() - before
		var serr *serve.Error
		switch {
		case errors.As(err, &serr):
			if n > uint64(len(os.edges)) {
				t.Fatalf("%s: %v, after the server applied %d edges of a %d-edge stream", name, err, n, len(os.edges))
			}
		case err != nil:
			t.Fatalf("%s: unstructured failure: %v", name, err)
		default:
			sameStats(t, name, wants[si], st, final)
			if n != uint64(len(os.edges)) {
				t.Fatalf("%s: the server applied %d edges of a %d-edge stream", name, n, len(os.edges))
			}
		}
	}
	if n := s.PanicsRecovered(); n != 0 {
		t.Fatalf("%s/%v: server recovered %d panics", oc.name, lc, n)
	}
}

// dupConn delivers the target-th Edges frame written through it twice, as
// a retransmitting link would: the copy claims a clock the session has
// already passed.
type dupConn struct {
	net.Conn
	target  int
	edges   int    // Edges frames written so far
	pending []byte // bytes not yet forming a whole frame
}

func (c *dupConn) Write(p []byte) (int, error) {
	c.pending = append(c.pending, p...)
	for len(c.pending) > serve.FrameHeaderLen {
		n := serve.FrameHeaderLen + int(binary.BigEndian.Uint32(c.pending)) - 4
		if len(c.pending) < n {
			break
		}
		frame := c.pending[:n]
		copies := 1
		if serve.FrameType(frame[serve.FrameHeaderLen]) == serve.FrameEdges {
			if c.edges == c.target {
				copies = 2
			}
			c.edges++
		}
		for range copies {
			if _, err := c.Conn.Write(frame); err != nil {
				return 0, err
			}
		}
		c.pending = c.pending[n:]
	}
	return len(p), nil
}

// checkEngine runs the row's program under pin.Run with teatool's two
// replay tools, the reference ReplayTool and the batched
// CompiledReplayTool, and demands identical Stats and final state.
func checkEngine(t *testing.T, oc *oracleCase, lc core.LookupConfig) {
	t.Helper()
	ref := teatool.NewReplayTool(oc.a, lc)
	comp := teatool.NewCompiledReplayTool(core.Compile(oc.a, lc))
	for _, tool := range []pin.Tool{ref, comp} {
		if _, err := pin.New().Run(oc.prog, tool, 0); err != nil {
			t.Fatalf("%s/%v: engine run: %v", oc.name, lc, err)
		}
	}
	if *ref.Stats() != *comp.Stats() || ref.Replayer().Cur() != comp.Replayer().Cur() {
		t.Fatalf("%s/%v: engine replay tools diverge:\nreference %+v cur=%d\ncompiled  %+v cur=%d",
			oc.name, lc, *ref.Stats(), ref.Replayer().Cur(), *comp.Stats(), comp.Replayer().Cur())
	}
}

// FuzzExecutors is checkReplay under fuzz bytes. The input picks a table
// row and a lookup configuration, a stream fault (none, or faultinject's
// drop, swap or duplicate) with its seed and count, and a window of at
// most 8192 edges of the faulted stream (empty and short windows
// included); the rest of the bytes feed checkReplay's cut points:
// AdvanceBatch batch sizes, pipeline workers, chunk size and ring depth,
// SpecReplay+Merge segment sizes, and the true entry (state, desynced) one
// segment is merged from. Draws past the input's end are 0: size 1, one
// worker, the first state. The rows are built once, so an iteration costs
// replays, not a recording.
func FuzzExecutors(f *testing.F) {
	// in encodes a row, a lookup, a fault and the two-byte draws after it.
	in := func(row, lookup, fault byte, draws ...uint16) []byte {
		b := []byte{row, lookup, fault}
		for _, d := range draws {
			b = append(b, byte(d>>8), byte(d))
		}
		return b
	}
	f.Add(in(0, 0, 0))                                   // 181.mcf, clean, every cut 1
	f.Add(in(0, 2, 1, 5, 40, 100, 0, 61, 300))           // dropped events
	f.Add(in(1, 0, 2, 6, 60, 0, 0, 7, 90, 2, 0, 1, 500)) // 176.gcc, swapped events
	f.Add(in(3, 3, 3, 7, 100, 0, 0))                     // hand-built, duplicated events
	f.Add(in(2, 1, 0, 0, 0, 625))                        // 901.steady, empty window
	f.Add(in(3, 0, 1, 9, 4, 4096, 0, 3, 1, 1, 1, 2, 5, 4, 1, 7, 2, 17, 2, 6, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := oracleCases(t)
		if len(data) < 3 {
			data = append(data, make([]byte, 3-len(data))...)
		}
		oc := &rows[int(data[0])%len(rows)]
		li := int(data[1]) % len(oracleLookups)
		src := byteSource(data[3:])
		stream := oc.clean
		if fault := int(data[2]) % len(streamFaults); fault > 0 { // 0 is none
			seed := int64(src.Intn(1 << 16))
			stream = faultEvents(stream, fault-1, seed, 1+src.Intn(400))
		}
		at := src.Intn(len(stream) + 1)
		n := min(len(stream)-at, 8192)
		if k := src.Intn(n + 1); k != 0 {
			n = k
		}
		checkReplay(t, fmt.Sprintf("%s/%v", oc.name, oracleLookups[li]), oc.a, oracleLookups[li], oc.imgs[li], stream[at:at+n], &src)
	})
}

// tryCapture records p's dynamic block-edge stream — every cfg.Edge
// including the final nil-To halt edge — with StarDBT-counted instruction
// deltas, or the guest's error. maxSteps caps the run (0 = unbounded).
func tryCapture(p *isa.Program, maxSteps uint64) ([]cfg.Edge, []uint64, error) {
	m := cpu.New(p)
	r := cfg.NewRunner(m, cfg.StarDBT)
	r.Arm(nil, maxSteps)
	var edges []cfg.Edge
	var instrs []uint64
	var prev uint64
	for {
		e, ok, err := r.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		edges = append(edges, e)
		instrs = append(instrs, m.Steps()-prev)
		prev = m.Steps()
		if e.To == nil {
			break
		}
	}
	return edges, instrs, nil
}
