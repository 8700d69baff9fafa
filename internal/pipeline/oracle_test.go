package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/obs"
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

// TestReferenceEventOracle holds every compiled obs path to the reference
// Replayer, whose emission code shares nothing with the compiled kernels:
// per-edge Advance with obs attached against AdvanceBatch (plain and
// Specialize'd, fed in odd batch sizes), SequentialReplayObs and the replay
// pipeline at random worker counts and chunk sizes. Inputs are clean and
// perturbed (every 3rd, 5th, 7th label) streams of the seeded 181.mcf
// program and of the 901.steady loop nest, whose stride tables fire; the
// reference runs with hash and B+ tree containers, local caches on and off.
// Stats, final state and event streams must be identical. Cache-less
// compiled paths are also held to each other exactly, probe depth included.
func TestReferenceEventOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	batches := []int{1, 3, 7, 61, 509}
	fused := map[string]bool{}
	for _, prog := range []string{"181.mcf", "901.steady"} {
		p := workloadProgram(t, prog, 3)
		a := buildAutomaton(t, p)
		edges, instrs := captureEdges(t, p)
		clean, _ := labelStream(edges, instrs)
		streams := map[string][]core.Edge{"clean": clean}
		for _, n := range []int{3, 5, 7} {
			streams[fmt.Sprintf("perturb%d", n)] = perturb(clean, n)
		}
		for _, sname := range []string{"clean", "perturb3", "perturb5", "perturb7"} {
			stream := streams[sname]
			for _, global := range []core.GlobalKind{core.GlobalHash, core.GlobalBTree} {
				for _, local := range []bool{false, true} {
					lc := core.LookupConfig{Global: global, Local: local}
					name := fmt.Sprintf("%s/%s/%v", prog, sname, lc)

					o := obs.NewWith(obs.NewRegistry(), oracleRing)
					ref := core.NewReplayer(a, lc)
					ref.SetObs(o)
					for _, e := range stream {
						ref.Advance(e.Label, e.Instrs)
					}
					want := snapshotRun(t, name+" reference", o, *ref.Stats(), ref.Cur())
					if sname != "clean" && (want.st.Desyncs == 0 || want.st.Resyncs == 0) {
						t.Fatalf("%s: perturbed stream never desyncs and resyncs: %+v", name, want.st)
					}

					c := core.Compile(a, lc)
					spec := core.Specialize(c, clean)
					var batchRuns []oracleRun
					for _, img := range []struct {
						kind string
						c    *core.Compiled
					}{{"batch", c}, {"stride", spec}} {
						o := obs.NewWith(obs.NewRegistry(), oracleRing)
						r := core.NewCompiledReplayer(img.c)
						r.SetObs(o)
						for i, j := 0, 0; i < len(stream); j++ {
							n := min(batches[j%len(batches)], len(stream)-i)
							r.AdvanceBatch(stream[i : i+n])
							i += n
						}
						if r.StrideEdges() != 0 {
							fused[prog] = true
						}
						got := snapshotRun(t, name+" "+img.kind, o, *r.Stats(), r.Cur())
						sameRun(t, name+" "+img.kind, want, got, false)
						batchRuns = append(batchRuns, got)
					}
					if local {
						continue // the memoryless paths replay cache-less only
					}
					for _, img := range []struct {
						kind string
						c    *core.Compiled
					}{{"plain", c}, {"specialized", spec}} {
						o := obs.NewWith(obs.NewRegistry(), oracleRing)
						st, cur := core.SequentialReplayObs(img.c, stream, o)
						got := snapshotRun(t, name+" sequential "+img.kind, o, st, cur)
						sameRun(t, name+" sequential "+img.kind, want, got, false)
						sameRun(t, name+" sequential vs batch "+img.kind, batchRuns[0], got, true)

						cfg := Config{Workers: 1 + rng.Intn(4), ChunkEdges: 1 + rng.Intn(2048), Depth: 8}
						o = obs.NewWith(obs.NewRegistry(), oracleRing)
						cfg.Obs = o
						pl := NewReplay(img.c, cfg)
						feedAll(pl, stream)
						st, cur = pl.Barrier()
						pl.Close()
						pname := fmt.Sprintf("%s pipeline %s w=%d chunk=%d", name, img.kind, cfg.Workers, cfg.ChunkEdges)
						got = snapshotRun(t, pname, o, st, cur)
						sameRun(t, pname, want, got, false)
						sameRun(t, pname+" vs batch", batchRuns[0], got, true)
					}
				}
			}
		}
	}
	if !fused["901.steady"] {
		t.Fatal("no obs-on AdvanceBatch consumed an edge through a fused stride cycle")
	}
}
