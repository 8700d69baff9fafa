package pipeline

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/faultinject"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/trace"
)

// oracleRing is the event-ring capacity of the oracle's contexts: large
// enough that no run drops events (asserted), so whole streams compare.
const oracleRing = 1 << 18

// oracleRun is one replay's observable outcome.
type oracleRun struct {
	st     core.Stats
	cur    core.StateID
	events []obs.Event
}

func snapshotRun(t *testing.T, name string, o *obs.Obs, st core.Stats, cur core.StateID) oracleRun {
	t.Helper()
	events, dropped := o.Tracer.Snapshot()
	if dropped != 0 {
		t.Fatalf("%s: event ring dropped %d events; raise oracleRing", name, dropped)
	}
	return oracleRun{st, cur, events}
}

// sameRun compares two outcomes. With exactProbe false, the Aux of
// CacheMissProbe events (the probe depth) is ignored: it counts slots of
// the compiled entry table on one side and nodes or slots of the reference
// replayer's container on the other.
func sameRun(t *testing.T, name string, want, got oracleRun, exactProbe bool) {
	t.Helper()
	if got.st != want.st || got.cur != want.cur {
		t.Fatalf("%s: stats diverge:\nwant %+v cur=%d\ngot  %+v cur=%d", name, want.st, want.cur, got.st, got.cur)
	}
	if len(got.events) != len(want.events) {
		t.Fatalf("%s: %d events, want %d", name, len(got.events), len(want.events))
	}
	for i, w := range want.events {
		g := got.events[i]
		if !exactProbe && w.Kind == obs.EvCacheMissProbe {
			g.Aux = w.Aux
		}
		if g != w {
			t.Fatalf("%s: event %d differs:\nwant %+v\ngot  %+v", name, i, w, g)
		}
	}
}

// oracleCase is one row of the oracle table: an automaton, the clean
// stream its stride table is specialized on, and the named streams
// replayed against it. Every stream but "clean" must desync and resync.
type oracleCase struct {
	name    string
	a       *core.Automaton
	clean   []core.Edge
	streams []oracleStream
}

type oracleStream struct {
	name  string
	edges []core.Edge
}

// faultEvents applies one faultinject stream fault to a label stream.
func faultEvents(stream []core.Edge, seed int64, fault func(*faultinject.Injector, []faultinject.BlockEvent, int) []faultinject.BlockEvent) []core.Edge {
	events := make([]faultinject.BlockEvent, len(stream))
	for i, e := range stream {
		events[i] = faultinject.BlockEvent(e)
	}
	events = fault(faultinject.New(seed), events, max(1, len(events)/50))
	out := make([]core.Edge, len(events))
	for i, e := range events {
		out[i] = core.Edge(e)
	}
	return out
}

// programCase records the named workload's automaton and stream, and
// derives the perturbed streams (every 3rd/5th/7th label corrupted) and,
// with faults, faultinject's dropped and adjacently swapped events. In a
// loop nest as tight as 901.steady's a dropped or swapped event mostly
// skips or reorders whole iterations, which never desyncs, so that row
// runs without them.
func programCase(t *testing.T, prog string, faults bool) oracleCase {
	t.Helper()
	p := workloadProgram(t, prog, 3)
	edges, instrs := captureEdges(t, p)
	clean, _ := labelStream(edges, instrs)
	return withStreams(oracleCase{name: prog, a: buildAutomaton(t, p), clean: clean}, true, faults)
}

// withStreams fills a case's streams from its clean stream: perturbed adds
// the periodic label corruptions, faults the faultinject streams.
func withStreams(c oracleCase, perturbed, faults bool) oracleCase {
	c.streams = []oracleStream{{"clean", c.clean}}
	if perturbed {
		for _, n := range []int{3, 5, 7} {
			c.streams = append(c.streams, oracleStream{fmt.Sprintf("perturb%d", n), perturb(c.clean, n)})
		}
	}
	if faults {
		c.streams = append(c.streams,
			oracleStream{"drop", faultEvents(c.clean, 5, (*faultinject.Injector).DropEvents)},
			oracleStream{"swap", faultEvents(c.clean, 6, (*faultinject.Injector).SwapEvents)})
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
	return withStreams(oracleCase{name: "hand-built", a: core.Build(set), clean: walk}, false, true)
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

// TestReferenceEventOracle holds every compiled replay path to the
// reference Replayer, whose code shares nothing with the compiled kernels.
// Each row of the table is an automaton and its streams: the seeded
// 181.mcf, 176.gcc and 901.steady programs (901.steady's stride tables
// fire), and a hand-built automaton holding every slot shape of the
// compiled form. Streams are clean, perturbed (every 3rd, 5th, 7th label
// corrupted) and faultinject-faulted (dropped and swapped events). The
// reference runs with hash and B+ tree containers, local caches on and off,
// with obs attached. Against it run AdvanceBatch (plain and Specialize'd,
// fed in odd batch sizes) with obs on and off, and, cache-less,
// SequentialReplay (obs on and off), the replay pipeline at random worker counts and
// chunk sizes with obs on and off, and SpecReplay + Merge over random
// segments. Stats and final state must be identical, and so must event
// streams where obs is on. Cache-less compiled paths are also held to each
// other exactly, probe depth included.
func TestReferenceEventOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	batches := []int{1, 3, 7, 61, 509}
	fused := map[string]bool{}
	cases := []oracleCase{
		programCase(t, "181.mcf", true),
		programCase(t, "176.gcc", true),
		programCase(t, "901.steady", false),
		handBuiltCase(t),
	}
	for _, oc := range cases {
		a := oc.a
		for _, os := range oc.streams {
			stream := os.edges
			for _, global := range []core.GlobalKind{core.GlobalHash, core.GlobalBTree} {
				for _, local := range []bool{false, true} {
					lc := core.LookupConfig{Global: global, Local: local}
					name := fmt.Sprintf("%s/%s/%v", oc.name, os.name, lc)

					o := obs.NewWith(obs.NewRegistry(), oracleRing)
					ref := core.NewReplayer(a, lc)
					ref.SetObs(o)
					for _, e := range stream {
						ref.Advance(e.Label, e.Instrs)
					}
					want := snapshotRun(t, name+" reference", o, *ref.Stats(), ref.Cur())
					if os.name != "clean" && (want.st.Desyncs == 0 || want.st.Resyncs == 0) {
						t.Fatalf("%s: perturbed stream never desyncs and resyncs: %+v", name, want.st)
					}

					c := core.Compile(a, lc)
					if oc.name == "hand-built" {
						requireSlotShapes(t, c)
					}
					spec := core.Specialize(c, oc.clean)
					var batchRuns []oracleRun
					for _, img := range []struct {
						kind string
						c    *core.Compiled
					}{{"batch", c}, {"stride", spec}} {
						for _, on := range []bool{true, false} {
							o := obs.NewWith(obs.NewRegistry(), oracleRing)
							r := core.NewCompiledReplayer(img.c)
							if on {
								r.SetObs(o)
							}
							for i, j := 0, 0; i < len(stream); j++ {
								n := min(batches[j%len(batches)], len(stream)-i)
								r.AdvanceBatch(stream[i : i+n])
								i += n
							}
							if r.StrideEdges() != 0 {
								fused[oc.name] = true
							}
							if !on {
								sameStats(t, name+" "+img.kind+" obs off", want, r.Stats(), r.Cur())
								continue
							}
							got := snapshotRun(t, name+" "+img.kind, o, *r.Stats(), r.Cur())
							sameRun(t, name+" "+img.kind, want, got, false)
							batchRuns = append(batchRuns, got)
						}
					}
					if local {
						continue // the memoryless paths replay cache-less only
					}
					for _, img := range []struct {
						kind string
						c    *core.Compiled
					}{{"plain", c}, {"specialized", spec}} {
						o := obs.NewWith(obs.NewRegistry(), oracleRing)
						st, cur := core.SequentialReplay(img.c, stream, o)
						got := snapshotRun(t, name+" sequential "+img.kind, o, st, cur)
						sameRun(t, name+" sequential "+img.kind, want, got, false)
						sameRun(t, name+" sequential vs batch "+img.kind, batchRuns[0], got, true)
						st, cur = core.SequentialReplay(img.c, stream, nil)
						sameStats(t, name+" sequential obs off "+img.kind, want, &st, cur)

						for _, on := range []bool{true, false} {
							cfg := Config{Workers: 1 + rng.Intn(4), ChunkEdges: 1 + rng.Intn(2048), Depth: 8}
							o = obs.NewWith(obs.NewRegistry(), oracleRing)
							if on {
								cfg.Obs = o
							}
							pl := NewReplay(img.c, cfg)
							feedAll(pl, stream)
							st, cur = pl.Barrier()
							pl.Close()
							pname := fmt.Sprintf("%s pipeline %s obs=%v w=%d chunk=%d", name, img.kind, on, cfg.Workers, cfg.ChunkEdges)
							if !on {
								sameStats(t, pname, want, &st, cur)
								continue
							}
							got = snapshotRun(t, pname, o, st, cur)
							sameRun(t, pname, want, got, false)
							sameRun(t, pname+" vs batch", batchRuns[0], got, true)
						}

						st, cur = specMerge(img.c, stream, rng)
						sameStats(t, name+" SpecReplay+Merge "+img.kind, want, &st, cur)
					}
				}
			}
		}
	}
	if !fused["901.steady"] {
		t.Fatal("no obs-on AdvanceBatch consumed an edge through a fused stride cycle")
	}
}

// sameStats compares an obs-off run's Stats and final state with the
// reference's.
func sameStats(t *testing.T, name string, want oracleRun, st *core.Stats, cur core.StateID) {
	t.Helper()
	if *st != want.st || cur != want.cur {
		t.Fatalf("%s: stats diverge:\nwant %+v cur=%d\ngot  %+v cur=%d", name, want.st, want.cur, *st, cur)
	}
}

// specMerge replays stream as the obs-off pipeline does, in one goroutine:
// each segment (1 to 300 edges) is scanned speculatively from (NTE,
// in-sync) by SpecReplay, then reconciled in order by Merge.
func specMerge(c *core.Compiled, stream []core.Edge, rng *rand.Rand) (core.Stats, core.StateID) {
	var rc core.Reconciler
	var sr core.SpecResult
	var total core.Stats
	cur, des := core.NTE, false
	for i := 0; i < len(stream); {
		seg := stream[i:min(i+1+rng.Intn(300), len(stream))]
		c.SpecReplay(seg, &sr)
		var d core.Stats
		d, cur, des = rc.Merge(c, seg, 0, cur, des, &sr, nil)
		total.Add(&d)
		i += len(seg)
	}
	return total, cur
}
