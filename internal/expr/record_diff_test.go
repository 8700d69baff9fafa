package expr

import (
	"runtime"
	"sync"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

// captureBench generates one calibrated benchmark and captures its dynamic
// edge stream, the recording currency both recorder forms replay.
func captureBench(t *testing.T, spec workload.Spec, target uint64) (*isa.Program, []cfg.Edge, []uint64) {
	t.Helper()
	p, err := workload.Generate(spec, target)
	if err != nil {
		t.Fatalf("%s: generate: %v", spec.Name, err)
	}
	capt := teatool.NewEdgeCaptureTool()
	if _, err := pin.New().Run(p, capt, 0); err != nil {
		t.Fatalf("%s: capture run: %v", spec.Name, err)
	}
	if len(capt.Edges()) == 0 {
		t.Fatalf("%s: empty edge stream", spec.Name)
	}
	return p, capt.Edges(), capt.Instrs()
}

// newDiffRecorder builds a recorder for one strategy over the benchmark's
// program symbols.
func newDiffRecorder(t *testing.T, stratName string, p *isa.Program, tc trace.Config) *core.Recorder {
	t.Helper()
	strat, ok := trace.NewStrategy(stratName, p, tc)
	if !ok {
		t.Fatalf("unknown strategy %q", stratName)
	}
	return core.NewRecorder(strat, core.ConfigGlobalLocal)
}

// TestRecorderReacquiresTraceAfterCreating pins down the Creating→Executing
// edge of Algorithm 2 under the generation-based cache scheme: finishing a
// trace forces the cursor to NTE and syncs the new trace into the automaton
// and the replayer's containers (AddEntry bumps the cache generation). The
// very next time the stream reaches a recorded entry from NTE, the global
// lookup must re-acquire the trace — in particular, a negative local-cache
// entry cached for that address *before* its trace existed must not mask
// the entry now.
func TestRecorderReacquiresTraceAfterCreating(t *testing.T) {
	spec, _ := workload.ByName("176.gcc")
	p, edges, instrs := captureBench(t, spec, 150_000)
	tc := trace.Config{HotThreshold: DefaultHotThreshold}
	rec := newDiffRecorder(t, "mret", p, tc)

	episodes := 0
	finished := false // a trace completed; its entry not yet re-acquired
	for i := range edges {
		rep := rec.Replayer()
		if finished && rec.State() == core.RecExecuting && rep.Cur() == core.NTE && edges[i].To != nil {
			if _, ok := rec.Automaton().EntryFor(edges[i].To.Head); ok {
				before := *rep.Stats()
				rec.Observe(edges[i], instrs[i])
				after := *rep.Stats()
				if after.GlobalHits != before.GlobalHits+1 {
					t.Fatalf("edge %d: entry 0x%x known to the automaton but the global lookup missed (GlobalHits %d -> %d): stale negative cache",
						i, edges[i].To.Head, before.GlobalHits, after.GlobalHits)
				}
				if after.TraceEnters != before.TraceEnters+1 || rep.Cur() == core.NTE {
					t.Fatalf("edge %d: lookup hit but the trace was not entered (TraceEnters %d -> %d, cur %d)",
						i, before.TraceEnters, after.TraceEnters, rep.Cur())
				}
				episodes++
				finished = false
				continue
			}
		}
		wasCreating := rec.State() == core.RecCreating
		rec.Observe(edges[i], instrs[i])
		if wasCreating && rec.State() == core.RecExecuting {
			finished = true // ForceState(NTE) + sync just happened
		}
	}
	if episodes == 0 {
		t.Fatal("stream never re-entered a trace from NTE after finishing one; test exercised nothing")
	}
}

// TestSnapshotConcurrentReaders records in batches while reader goroutines
// walk Recorder.Snapshot() copies — the documented concurrent-read
// contract: a snapshot's own structure (NumStates, State, Next, Entries,
// EntryFor) is private to the reader while recording continues. Run under
// the race detector (scripts/ci.sh does) this proves the deep copy shares
// no mutable memory with the live automaton.
func TestSnapshotConcurrentReaders(t *testing.T) {
	spec, _ := workload.ByName("176.gcc")
	p, edges, instrs := captureBench(t, spec, 150_000)
	tc := trace.Config{HotThreshold: DefaultHotThreshold}
	rec := newDiffRecorder(t, "mret", p, tc)

	snaps := make(chan *core.Automaton, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range snaps {
				// Walk every state's full transition table and the entry
				// table; fold into a sink so nothing is optimized away.
				var sink uint64
				for s := 0; s < a.NumStates(); s++ {
					id := core.StateID(s)
					st := a.State(id)
					sink += uint64(st.NumTrans())
					for _, tr := range a.FullTransitions(id) {
						if !tr.InTrace {
							continue
						}
						next, ok := st.Next(tr.Label)
						if !ok || next != tr.To {
							t.Errorf("snapshot: Next(%d, 0x%x) = %d,%v; want %d", id, tr.Label, next, ok, tr.To)
							return
						}
					}
				}
				for _, e := range a.Entries() {
					if s, ok := a.EntryFor(e.Addr); !ok || s != e.State {
						t.Errorf("snapshot: EntryFor(0x%x) = %d,%v; want %d", e.Addr, s, ok, e.State)
						return
					}
					sink += e.Addr
				}
				_ = sink
			}
		}()
	}

	const chunk = 97
	for i := 0; i < len(edges); i += chunk {
		j := i + chunk
		if j > len(edges) {
			j = len(edges)
		}
		rec.ObserveBatch(edges[i:j], instrs[i:j])
		select {
		case snaps <- rec.Snapshot():
		default: // readers busy; keep recording
		}
	}
	close(snaps)
	wg.Wait()
}

// TestRecorderBatchZeroAllocSteadyState: once the bounded trace set
// saturates (the automaton's Version survives three passes), a batched
// recording pass allocates nothing, for mret and ctt, on mcf and on the
// first 32k edges of gcc (its full stream is ten times longer). Mallocs are
// counted over 200 passes, with a slack of one per ten for the runtime.
func TestRecorderBatchZeroAllocSteadyState(t *testing.T) {
	tc := trace.Config{HotThreshold: DefaultHotThreshold, MaxSetBlocks: 4096}
	for _, name := range []string{"181.mcf", "176.gcc"} {
		spec, _ := workload.ByName(name)
		p, edges, instrs := captureBench(t, spec, 300_000)
		if n := 32 << 10; len(edges) > n {
			edges, instrs = edges[:n], instrs[:n]
		}
		for _, strat := range []string{"mret", "ctt"} {
			rec := newDiffRecorder(t, strat, p, tc)
			for stable, last, i := 0, uint64(0), 0; stable < 3; i++ {
				if i == 64 {
					t.Fatalf("%s/%s: automaton still growing after %d passes", name, strat, i)
				}
				rec.ObserveBatch(edges, instrs)
				if v := rec.Automaton().Version(); v == last {
					stable++
				} else {
					stable, last = 0, v
				}
			}
			const passes = 200
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < passes; i++ {
				rec.ObserveBatch(edges, instrs)
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n > passes/10 {
				t.Errorf("%s/%s: %d allocations over %d steady-state passes, want ~0", name, strat, n, passes)
			}
		}
	}
}
