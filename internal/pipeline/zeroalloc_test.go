package pipeline

import (
	"runtime"
	"sync"
	"testing"

	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/trace"
)

// TestReplayPipelineObsZeroAllocSteadyState: with the observability layer
// attached, the warmed pipeline must stay allocation-free — per-shard folds,
// the merged event splice and the batched tracer ingest all recycle their
// buffers. Measured by direct malloc counting over many passes (not
// AllocsPerRun) so a one-off background allocation cannot hide a real
// per-pass cost, with a small slack for unrelated runtime activity.
func TestReplayPipelineObsZeroAllocSteadyState(t *testing.T) {
	p := testProgram(t, 7)
	edges, instrs := captureEdges(t, p)
	stream, _ := labelStream(edges, instrs)
	a := buildAutomaton(t, p)
	c := core.Compile(a, core.ConfigGlobalNoLocal)
	o := obs.New()
	pl := NewReplay(c, Config{Workers: 2, Obs: o})
	defer pl.Close()
	pass := func() {
		pl.Feed(stream)
		pl.Barrier()
		pl.Reset()
	}
	for i := 0; i < 12; i++ {
		pass() // warm: every chunk buffer, scan result and fold buffer grows once
	}
	runtime.GC()
	primeSudogs()
	const passes = 200
	before := mallocs()
	for i := 0; i < passes; i++ {
		pass()
	}
	if n := mallocs() - before; n > passes/10 {
		t.Fatalf("%d allocations over %d obs-on passes, want ~0", n, passes)
	}
}

// TestRecordPipelineZeroAllocSteadyState: once saturated, a record pass
// allocates nothing, obs off and on, counted as above.
func TestRecordPipelineZeroAllocSteadyState(t *testing.T) {
	p := benchProgram()
	edges, instrs := captureEdges(t, p)
	for _, o := range []*obs.Obs{nil, obs.New()} {
		strat, _ := trace.NewStrategy("mret", p, benchTraceCfg)
		pl := NewRecord(strat, Config{Workers: 2, Obs: o})
		saturate(pl, edges, instrs)
		runtime.GC()
		primeSudogs()
		const passes = 200
		before := mallocs()
		for i := 0; i < passes; i++ {
			pl.Feed(edges, instrs)
			pl.Barrier()
		}
		n := mallocs() - before
		pl.Close()
		if n > passes/10 {
			t.Errorf("obs=%v: %d allocations over %d saturated passes, want ~0", o != nil, n, passes)
		}
	}
}

// primeSudogs fills the runtime's pool of sudogs, the record a goroutine
// holds while it blocks on a channel, by parking 128 goroutines per P plus
// 128 on one channel at once and then releasing them. A pipeline side parks
// on one P and often wakes on another, so sudogs drift between the per-P
// caches (128 each); a cache that runs dry refills from the central pool,
// and the runtime allocates only when that is empty too. runtime.GC empties
// the central pool, and after it the drift allocates up to about one cache's
// worth of sudogs, spread over thousands of passes as it happens to reach
// its extremes, so no fixed warm-up absorbs it. A primed pool holds more
// than all per-P caches together, the central pool never runs dry, and a
// warm pass allocates nothing. This absorbs a runtime cost bounded per GC
// cycle, not a per-pass one: an allocation per pass or per chunk still
// fails the measured loop.
func primeSudogs() {
	n := 128 * (runtime.GOMAXPROCS(0) + 1)
	var parked, released sync.WaitGroup
	parked.Add(n)
	released.Add(n)
	gate := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			defer released.Done()
			parked.Done()
			<-gate
		}()
	}
	parked.Wait()
	close(gate)
	released.Wait()
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
