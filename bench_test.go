// Benchmarks regenerating the paper's tables (one per table, on a
// representative workload subset — cmd/teabench runs the full 26-benchmark
// suite) plus ablation benches for the design choices DESIGN.md calls out:
// B+ tree fanout, local-cache size, global-container choice, per-state
// transition storage and the serialization encoder.
//
// Two kinds of numbers come out of these benches: real Go nanoseconds
// (ns/op), and the simulated-unit metrics the paper reports (coverage,
// slowdown versus native, size savings), attached via b.ReportMetric.
package tea_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	tea "github.com/lsc-tea/tea"
	"github.com/lsc-tea/tea/internal/btree"
	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/dbt"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/ucsim"
	"github.com/lsc-tea/tea/internal/workload"
)

// benchTarget keeps the benchmark programs small enough for tight bench
// loops; cmd/teabench uses the full 5M-instruction scale.
const benchTarget = 300_000

var (
	progOnce  sync.Once
	benchProg map[string]*tea.Program
)

// prog returns a cached calibrated benchmark program.
func prog(b *testing.B, name string) *tea.Program {
	b.Helper()
	progOnce.Do(func() { benchProg = make(map[string]*tea.Program) })
	if p, ok := benchProg[name]; ok {
		return p
	}
	p, err := tea.Benchmark(name, benchTarget)
	if err != nil {
		b.Fatal(err)
	}
	benchProg[name] = p
	return p
}

var benchTraceCfg = trace.Config{HotThreshold: 12}

// reportPerEdge attaches the replay hot path's headline metric: wall-clock
// nanoseconds per consumed stream edge across the whole timed region.
func reportPerEdge(b *testing.B, edges uint64) {
	b.Helper()
	if edges > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
	}
}

// BenchmarkTable1SizeSavings regenerates Table 1's cells for a light and a
// heavy benchmark under each strategy; the %savings metric is the table's
// "Savings" column.
func BenchmarkTable1SizeSavings(b *testing.B) {
	for _, wl := range []string{"171.swim", "176.gcc"} {
		for _, strat := range []string{"mret", "ctt", "tt"} {
			b.Run(wl+"/"+strat, func(b *testing.B) {
				p := prog(b, wl)
				var savings float64
				for i := 0; i < b.N; i++ {
					res, err := dbt.New().Run(p, strat, benchTraceCfg, 0)
					if err != nil {
						b.Fatal(err)
					}
					a := core.Build(res.Set)
					teaBytes := core.EncodedSize(a)
					savings = (1 - float64(teaBytes)/float64(res.TraceBytes)) * 100
				}
				b.ReportMetric(savings, "%savings")
			})
		}
	}
}

// BenchmarkTable2Replay is one row of Table 2: record with the DBT, replay
// with the TEA pintool. Metrics: replay coverage and the TEA/DBT coverage
// delta.
func BenchmarkTable2Replay(b *testing.B) {
	for _, wl := range []string{"181.mcf", "176.gcc"} {
		b.Run(wl, func(b *testing.B) {
			p := prog(b, wl)
			d, err := dbt.New().Run(p, "mret", benchTraceCfg, 0)
			if err != nil {
				b.Fatal(err)
			}
			a := core.Build(d.Set)
			var cov float64
			var edges uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tool := teatool.NewReplayTool(a, core.ConfigGlobalLocal)
				res, err := pin.New().Run(p, tool, 0)
				if err != nil {
					b.Fatal(err)
				}
				edges += res.Edges
				cov = tool.Stats().Coverage()
			}
			b.ReportMetric(cov*100, "%coverage")
			b.ReportMetric((cov-d.Coverage())*100, "%cov-vs-dbt")
			reportPerEdge(b, edges)
		})
	}
}

// BenchmarkTable3Record is one row of Table 3: online TEA recording
// (Algorithm 2) under the Pin engine.
func BenchmarkTable3Record(b *testing.B) {
	for _, wl := range []string{"181.mcf", "176.gcc"} {
		b.Run(wl, func(b *testing.B) {
			p := prog(b, wl)
			var cov float64
			var traces int
			var edges uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				strat, _ := trace.NewStrategy("mret", p, benchTraceCfg)
				tool := teatool.NewRecordTool(strat, core.ConfigGlobalLocal)
				res, err := pin.New().Run(p, tool, 0)
				if err != nil {
					b.Fatal(err)
				}
				edges += res.Edges
				cov = tool.Stats().Coverage()
				traces = tool.Recorder().Set().Len()
			}
			b.ReportMetric(cov*100, "%coverage")
			b.ReportMetric(float64(traces), "traces")
			reportPerEdge(b, edges)
		})
	}
}

// BenchmarkTable4Configs regenerates Table 4's configurations on one
// benchmark. ns/op is the *measured* analog of the paper's wall-clock
// columns: the transition-function implementations really differ in Go
// time too (the list scans cost real nanoseconds).
func BenchmarkTable4Configs(b *testing.B) {
	p := prog(b, "181.mcf")
	d, err := dbt.New().Run(p, "mret", benchTraceCfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	full := core.Build(d.Set)
	empty := core.Build(trace.NewSet("mret", p))

	b.Run("Native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := tea.NewMachine(p)
			if err := m.Run(1 << 62); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WithoutPintool", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pin.New().Run(p, nil, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	configs := []struct {
		name string
		a    *core.Automaton
		lc   core.LookupConfig
	}{
		{"Empty", empty, core.ConfigGlobalNoLocal},
		{"NoGlobalLocal", full, core.ConfigNoGlobalLocal},
		{"GlobalNoLocal", full, core.ConfigGlobalNoLocal},
		{"GlobalLocal", full, core.ConfigGlobalLocal},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			var edges uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tool := teatool.NewReplayTool(c.a, c.lc)
				res, err := pin.New().Run(p, tool, 0)
				if err != nil {
					b.Fatal(err)
				}
				edges += res.Edges
			}
			reportPerEdge(b, edges)
		})
	}
}

// BenchmarkBTreeFanout ablates the global B+ tree's order on the replay
// path (DESIGN.md §5.2).
func BenchmarkBTreeFanout(b *testing.B) {
	p := prog(b, "176.gcc")
	d, err := dbt.New().Run(p, "mret", benchTraceCfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	a := core.Build(d.Set)
	for _, fanout := range []int{4, 8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			lc := core.LookupConfig{Global: core.GlobalBTree, Fanout: fanout}
			var probes, edges uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tool := teatool.NewReplayTool(a, lc)
				res, err := pin.New().Run(p, tool, 0)
				if err != nil {
					b.Fatal(err)
				}
				edges += res.Edges
				probes = tool.Replayer().Index().Probes()
			}
			b.ReportMetric(float64(probes), "probes")
			reportPerEdge(b, edges)
		})
	}
}

// BenchmarkLocalCacheSize ablates the per-state cache size (DESIGN.md §5.3).
func BenchmarkLocalCacheSize(b *testing.B) {
	p := prog(b, "176.gcc")
	d, err := dbt.New().Run(p, "mret", benchTraceCfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	a := core.Build(d.Set)
	for _, size := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			lc := core.LookupConfig{Global: core.GlobalBTree, Local: true, LocalSize: size}
			var hitRate float64
			var edges uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tool := teatool.NewReplayTool(a, lc)
				res, err := pin.New().Run(p, tool, 0)
				if err != nil {
					b.Fatal(err)
				}
				edges += res.Edges
				s := tool.Stats()
				if t := s.LocalHits + s.LocalMisses; t > 0 {
					hitRate = float64(s.LocalHits) / float64(t)
				}
			}
			b.ReportMetric(hitRate*100, "%hit")
			reportPerEdge(b, edges)
		})
	}
}

// BenchmarkGlobalContainers compares the three global containers head to
// head (list vs B+ tree vs hash, DESIGN.md §5.1) in real nanoseconds.
func BenchmarkGlobalContainers(b *testing.B) {
	p := prog(b, "176.gcc")
	d, err := dbt.New().Run(p, "mret", benchTraceCfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	a := core.Build(d.Set)
	for _, g := range []core.GlobalKind{core.GlobalList, core.GlobalBTree, core.GlobalHash} {
		b.Run(g.String(), func(b *testing.B) {
			var edges uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tool := teatool.NewReplayTool(a, core.LookupConfig{Global: g})
				res, err := pin.New().Run(p, tool, 0)
				if err != nil {
					b.Fatal(err)
				}
				edges += res.Edges
			}
			reportPerEdge(b, edges)
		})
	}
}

// streamFixture is a captured dynamic block stream plus the automaton that
// describes it, shared by the compiled-replay benches.
type streamFixture struct {
	a      *core.Automaton
	stream []core.Edge
}

var (
	streamFixOnce sync.Once
	streamFix     map[string]*streamFixture
)

func streamFor(b *testing.B, name string) *streamFixture {
	b.Helper()
	streamFixOnce.Do(func() { streamFix = make(map[string]*streamFixture) })
	if f, ok := streamFix[name]; ok {
		return f
	}
	p := prog(b, name)
	d, err := dbt.New().Run(p, "mret", benchTraceCfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	stream, _, err := tea.CaptureStream(p)
	if err != nil {
		b.Fatal(err)
	}
	f := &streamFixture{a: core.Build(d.Set), stream: stream}
	streamFix[name] = f
	return f
}

// BenchmarkCompiledReplay is the raw transition function over a
// pre-captured stream (no engine in the timed region): the reference
// replayer versus the compiled flat automaton, batched, with local caches
// off (compiled-soa), stride-specialized with local caches on and off
// (compiled-stride, compiled-soa-stride), and with an observability context
// attached (-obs). 901.steady and 902.stream are the cycle workloads where
// the stride kernel fuses. ns/edge is the comparable across rows; tests in
// internal/core hold the zero-alloc claims.
func BenchmarkCompiledReplay(b *testing.B) {
	for _, wl := range []string{"181.mcf", "176.gcc", "901.steady", "902.stream"} {
		b.Run(wl, func(b *testing.B) { compiledReplayRows(b, streamFor(b, wl)) })
	}
}

// compiledReplayRows runs BenchmarkCompiledReplay's rows over one fixture.
func compiledReplayRows(b *testing.B, f *streamFixture) {
	compiled := core.Compile(f.a, core.ConfigGlobalLocal)
	stride := core.Specialize(compiled, f.stream)
	reference := func(lc core.LookupConfig) func() {
		r := core.NewReplayer(f.a, lc)
		return func() {
			r.Reset()
			for _, e := range f.stream {
				r.Advance(e.Label, e.Instrs)
			}
		}
	}
	replayer := func(c *core.Compiled, o *obs.Obs) *core.CompiledReplayer {
		r := core.NewCompiledReplayer(c)
		r.SetObs(o)
		return r
	}
	batch := func(r *core.CompiledReplayer) func() {
		return func() {
			r.Reset()
			r.AdvanceBatch(f.stream)
		}
	}
	strideOff, strideOn := replayer(stride, nil), replayer(stride, obs.New())
	soaStride := replayer(core.Specialize(core.Compile(f.a, core.ConfigGlobalNoLocal), f.stream), nil)
	rows := []struct {
		name   string
		pass   func()
		stride *core.CompiledReplayer
	}{
		{"reference-hash", reference(core.LookupConfig{Global: core.GlobalHash, Local: true}), nil},
		{"reference-btree", reference(core.ConfigGlobalLocal), nil},
		{"compiled-batch", batch(replayer(compiled, nil)), nil},
		{"compiled-soa", batch(replayer(core.Compile(f.a, core.ConfigGlobalNoLocal), nil)), nil},
		{"compiled-stride", batch(strideOff), strideOff},
		{"compiled-soa-stride", batch(soaStride), soaStride},
		{"compiled-batch-obs", batch(replayer(compiled, obs.New())), nil},
		{"compiled-stride-obs", batch(strideOn), strideOn},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row.pass()
			}
			reportPerEdge(b, uint64(b.N)*uint64(len(f.stream)))
			if row.stride != nil {
				b.ReportMetric(float64(row.stride.StrideEdges())/float64(len(f.stream)), "cycle-hit-rate")
			}
		})
	}
}

// BenchmarkStateTransLookup ablates per-state transition storage: the
// sorted-slice State.Next versus a map (DESIGN.md §5.4). Trace states have
// very few transitions, which is why the automaton uses the slice.
func BenchmarkStateTransLookup(b *testing.B) {
	p := prog(b, "181.mcf")
	d, err := dbt.New().Run(p, "mret", benchTraceCfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	a := core.Build(d.Set)
	// Gather a realistic probe set: every state's labels plus misses.
	type probe struct {
		s     core.StateID
		label uint64
	}
	var probes []probe
	for i := 1; i < a.NumStates(); i++ {
		id := core.StateID(i)
		for _, tr := range a.FullTransitions(id) {
			probes = append(probes, probe{id, tr.Label})
		}
		probes = append(probes, probe{id, 0xdeadbeef})
	}
	sort.Slice(probes, func(i, j int) bool {
		if probes[i].s != probes[j].s {
			return probes[i].s < probes[j].s
		}
		return probes[i].label < probes[j].label
	})

	b.Run("sorted-slice", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			pr := probes[i%len(probes)]
			if _, ok := a.State(pr.s).Next(pr.label); ok {
				hits++
			}
		}
		_ = hits
	})
	b.Run("map", func(b *testing.B) {
		// Build the map mirror once.
		maps := make([]map[uint64]core.StateID, a.NumStates())
		for i := 1; i < a.NumStates(); i++ {
			id := core.StateID(i)
			m := make(map[uint64]core.StateID)
			for _, tr := range a.FullTransitions(id) {
				if tr.InTrace {
					m[tr.Label] = tr.To
				}
			}
			maps[i] = m
		}
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			pr := probes[i%len(probes)]
			if _, ok := maps[pr.s][pr.label]; ok {
				hits++
			}
		}
		_ = hits
	})
}

// BenchmarkEncode measures serialization and decoding (DESIGN.md §5.5),
// with bytes/TBB as the density metric Table 1 rests on.
func BenchmarkEncode(b *testing.B) {
	p := prog(b, "176.gcc")
	d, err := dbt.New().Run(p, "mret", benchTraceCfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	a := core.Build(d.Set)
	b.Run("encode", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			enc, err := core.Encode(a)
			if err != nil {
				b.Fatal(err)
			}
			n = len(enc)
		}
		b.ReportMetric(float64(n)/float64(d.Set.NumTBBs()), "B/tbb")
	})
	data, err := core.Encode(a)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache := newStarDBTCache(p)
			if _, err := core.Decode(data, cache); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func newStarDBTCache(p *tea.Program) *cfg.Cache { return cfg.NewCache(p, cfg.StarDBT) }

// BenchmarkBTreeRaw measures the bare B+ tree against a Go map for the
// entry-table access pattern.
func BenchmarkBTreeRaw(b *testing.B) {
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i)*37 + 0x8048000
	}
	b.Run("btree", func(b *testing.B) {
		t := btree.New[int](btree.DefaultOrder)
		for i, k := range keys {
			t.Put(k, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Get(keys[i%len(keys)])
		}
	})
	b.Run("map", func(b *testing.B) {
		m := make(map[uint64]int, len(keys))
		for i, k := range keys {
			m[k] = i
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = m[keys[i%len(keys)]]
		}
	})
}

// BenchmarkWorkloadGeneration measures benchmark program generation, which
// gates the full-suite harness.
func BenchmarkWorkloadGeneration(b *testing.B) {
	spec, _ := workload.ByName("186.crafty")
	spec.WorkScale = 4
	for i := 0; i < b.N; i++ {
		workload.Program(spec)
	}
}

// BenchmarkInterpreter measures the raw interpreter (instructions/sec
// context for every simulated-time number in EXPERIMENTS.md).
func BenchmarkInterpreter(b *testing.B) {
	p := prog(b, "171.swim")
	b.ResetTimer()
	steps := uint64(0)
	for i := 0; i < b.N; i++ {
		m := tea.NewMachine(p)
		if err := m.Run(1 << 62); err != nil {
			b.Fatal(err)
		}
		steps += m.Steps()
	}
	b.ReportMetric(float64(steps)/float64(b.N), "instrs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/instr")
}

// BenchmarkDBTRecord times the DBT engine recording MRET traces over a
// whole run of 176.gcc, the largest text: interpretation, block discovery,
// the code-cache copy of every newly touched block, and trace selection.
func BenchmarkDBTRecord(b *testing.B) {
	p := prog(b, "176.gcc")
	b.Run("176.gcc", func(b *testing.B) {
		var steps uint64
		for i := 0; i < b.N; i++ {
			d, err := dbt.New().Run(p, "mret", benchTraceCfg, 0)
			if err != nil {
				b.Fatal(err)
			}
			steps += d.Info.Steps
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/instr")
	})
}

// BenchmarkHotThreshold sweeps the trace-selection hot threshold: lower
// thresholds record more traces earlier (higher coverage, bigger sets).
func BenchmarkHotThreshold(b *testing.B) {
	p := prog(b, "181.mcf")
	for _, thr := range []int{4, 12, 50, 200} {
		b.Run(fmt.Sprintf("threshold=%d", thr), func(b *testing.B) {
			var cov float64
			var traces int
			for i := 0; i < b.N; i++ {
				d, err := dbt.New().Run(p, "mret", trace.Config{HotThreshold: thr}, 0)
				if err != nil {
					b.Fatal(err)
				}
				cov = d.Coverage()
				traces = d.Set.Len()
			}
			b.ReportMetric(cov*100, "%coverage")
			b.ReportMetric(float64(traces), "traces")
		})
	}
}

// BenchmarkStrategies compares the selectors head to head on one workload:
// trace count, TBB count and the resulting TEA size.
func BenchmarkStrategies(b *testing.B) {
	p := prog(b, "256.bzip2")
	for _, strat := range []string{"mret", "ctt", "tt", "mfet"} {
		b.Run(strat, func(b *testing.B) {
			var tbbs int
			var teaBytes uint64
			for i := 0; i < b.N; i++ {
				d, err := dbt.New().Run(p, strat, benchTraceCfg, 0)
				if err != nil {
					b.Fatal(err)
				}
				tbbs = d.Set.NumTBBs()
				teaBytes = core.EncodedSize(core.Build(d.Set))
			}
			b.ReportMetric(float64(tbbs), "tbbs")
			b.ReportMetric(float64(teaBytes), "teaB")
		})
	}
}

// BenchmarkSimulate measures the timing simulator with TEA attribution.
func BenchmarkSimulate(b *testing.B) {
	p := prog(b, "183.equake")
	d, err := dbt.New().Run(p, "mret", benchTraceCfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	a := core.Build(d.Set)
	b.ResetTimer()
	var cpi float64
	for i := 0; i < b.N; i++ {
		res, err := ucsim.SimulateTEA(p, a, core.ConfigGlobalLocal, ucsim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		cpi = res.Total.CPI()
	}
	b.ReportMetric(cpi, "CPI")
}

// BenchmarkGranularity ablates block-level vs instruction-level TEA: wire
// sizes of both against code replication, and the per-instruction replay's
// real cost.
func BenchmarkGranularity(b *testing.B) {
	p := prog(b, "181.mcf")
	d, err := dbt.New().Run(p, "mret", benchTraceCfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	a := core.Build(d.Set)
	b.Run("sizes", func(b *testing.B) {
		var blockB, instrB uint64
		for i := 0; i < b.N; i++ {
			blockB = core.EncodedSize(a)
			instrB, err = core.InstrLevelSize(a, p)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(blockB), "blockB")
		b.ReportMetric(float64(instrB), "instrB")
		b.ReportMetric(float64(d.TraceBytes), "codeB")
	})
	b.Run("instr-replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := core.NewInstrReplayer(a, core.ConfigGlobalLocal, p)
			m := tea.NewMachine(p)
			for !m.Halted() {
				r.StepInstr(m.PC())
				if _, err := m.Step(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
