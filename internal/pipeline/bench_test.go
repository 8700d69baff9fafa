package pipeline

import (
	"fmt"
	"sync"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

// benchProgram is the workload of the pipeline benchmarks and the record
// zero-alloc test, generated once per process: 181.mcf calibrated to 300k
// dynamic instructions.
var benchProgram = sync.OnceValue(func() *isa.Program {
	spec, _ := workload.ByName("181.mcf")
	p, err := workload.Generate(spec, 300_000)
	if err != nil {
		panic(err)
	}
	return p
})

// benchTraceCfg bounds the recorded trace set, as a production trace cache
// is bounded, so warm-up saturates it.
var benchTraceCfg = trace.Config{HotThreshold: 12, MaxSetBlocks: 4096}

// saturate feeds whole passes into a record pipeline until its automaton's
// structural version survives three passes unchanged (slow-to-heat heads
// cross the hot threshold many passes after the bulk of the set
// stabilizes), and for at least floor passes, capped at 64.
func saturate(pl *RecordPipeline, edges []cfg.Edge, instrs []uint64) {
	// floor passes cycle every buffer of the FIFO free ring through a scan.
	floor := pl.cfg.Depth/((len(edges)+pl.cfg.ChunkEdges-1)/pl.cfg.ChunkEdges) + 2
	stable, last := 0, uint64(0)
	for p := 0; p < 64 && (stable < 3 || p < floor); p++ {
		pl.Feed(edges, instrs)
		pl.Barrier()
		if v := pl.Recorder().Automaton().Version(); v == last {
			stable++
		} else {
			stable, last = 0, v
		}
	}
}

// pipelineRows times one row per obs mode and worker count, reporting
// ns/edge over n edges a pass. start builds and warms a pipeline and
// returns one pass and the pipeline's Close.
func pipelineRows(b *testing.B, n int, start func(Config) (pass, stop func())) {
	for _, mode := range []string{"off", "on"} {
		for _, workers := range []int{1, 2, 4} {
			c := Config{Workers: workers}
			if mode == "on" {
				c.Obs = obs.New()
			}
			pass, stop := start(c)
			b.Run(fmt.Sprintf("obs=%s/workers=%d", mode, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pass()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/edge")
			})
			stop()
		}
	}
}

// BenchmarkReplayPipeline times warmed replay passes (Feed, Barrier,
// Reset), in obs=off/scan the worker-parallel part alone: SpecReplay over
// the pass's chunks, and in obs=off/merge the drain's junction work alone:
// Merge over each chunk, scanned beforehand, from its true entry state —
// or, where that is at NTE and Merge would need no step, from the first
// trace state in sync, so every chunk pays a lockstep re-replay.
// obs=off/merge-desync merges chunks of a stream whose every label is
// cold code, each entered at (NTE, desynced): the speculation never
// enters a trace, so Merge keeps it without a step.
func BenchmarkReplayPipeline(b *testing.B) {
	p := benchProgram()
	stream, _ := labelStream(captureEdges(b, p))
	c := core.Compile(buildAutomaton(b, p), core.ConfigGlobalNoLocal)
	pipelineRows(b, len(stream), func(cfg Config) (func(), func()) {
		pl := NewReplay(c, cfg)
		pass := func() {
			pl.Feed(stream)
			pl.Barrier()
			pl.Reset()
		}
		for w := 0; w < 12; w++ {
			pass() // every chunk buffer, scan result and fold buffer grows once
		}
		return pass, pl.Close
	})
	b.Run("obs=off/scan", func(b *testing.B) {
		chunk := Config{}.withDefaults().ChunkEdges
		var sr core.SpecResult
		c.SpecReplay(stream[:min(chunk, len(stream))], &sr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(stream); off += chunk {
				c.SpecReplay(stream[off:min(off+chunk, len(stream))], &sr)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/edge")
	})
	cold := append([]core.Edge(nil), stream...)
	for i := range cold {
		cold[i].Label = 0xdead0000 + uint64(i)
	}
	mergeRow(b, "obs=off/merge", c, stream, 1, false)
	mergeRow(b, "obs=off/merge-desync", c, cold, core.NTE, true)
}

// mergeRow times Merge over stream's pipeline-sized chunks, each scanned
// once up front and merged from its true entry state, with (ncur, ndes)
// standing in for an entry at NTE.
func mergeRow(b *testing.B, name string, c *core.Compiled, stream []core.Edge, ncur core.StateID, ndes bool) {
	chunk := Config{}.withDefaults().ChunkEdges
	type entry struct {
		seg []core.Edge
		sr  core.SpecResult
		cur core.StateID
		des bool
	}
	var chunks []*entry
	var rc core.Reconciler
	cur, des := core.NTE, false
	for off := 0; off < len(stream); off += chunk {
		e := &entry{seg: stream[off:min(off+chunk, len(stream))], cur: cur, des: des}
		if cur == core.NTE {
			e.cur, e.des = ncur, ndes
		}
		c.SpecReplay(e.seg, &e.sr)
		_, cur, des = rc.Merge(c, e.seg, 0, cur, des, &e.sr, nil)
		chunks = append(chunks, e)
	}
	b.Run(name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, e := range chunks {
				rc.Merge(c, e.seg, 0, e.cur, e.des, &e.sr, nil)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/edge")
	})
}

// BenchmarkRecordPipeline times saturated record passes (Feed, Barrier),
// and in obs=off/scan the worker-parallel part alone: SpecRecord against a
// compiled snapshot of the saturated automaton. The last ci.sh step holds
// obs=off/workers=2 to at least 1.3× obs=off/workers=1 (benchdiff -faster).
func BenchmarkRecordPipeline(b *testing.B) {
	p := benchProgram()
	edges, instrs := captureEdges(b, p)
	var snap *core.Compiled
	pipelineRows(b, len(edges), func(cfg Config) (func(), func()) {
		strat, _ := trace.NewStrategy("mret", p, benchTraceCfg)
		pl := NewRecord(strat, cfg)
		saturate(pl, edges, instrs)
		if snap == nil {
			snap = core.Compile(pl.Recorder().Automaton(), core.ConfigGlobalNoLocal)
		}
		return func() {
			pl.Feed(edges, instrs)
			pl.Barrier()
		}, pl.Close
	})
	b.Run("obs=off/scan", func(b *testing.B) {
		var sr core.SpecResult
		snap.SpecRecord(edges, instrs, &sr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap.SpecRecord(edges, instrs, &sr)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
	})
}
