package expr

import (
	"fmt"
	"testing"

	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/dbt"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/stats"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/workload"
)

// ReplayBenchRow is one (benchmark, replayer configuration) measurement of
// the raw transition-function cost: wall-clock nanoseconds and heap
// allocations per consumed stream edge, plus the coverage the run reported
// (a correctness tripwire — every configuration must agree).
type ReplayBenchRow struct {
	Bench    string  `json:"bench"`
	Config   string  `json:"config"`
	Edges    int     `json:"edges"`
	NsPerOp  float64 `json:"ns_per_edge"`
	AllocsPO float64 `json:"allocs_per_edge"`
	Coverage float64 `json:"coverage"`
	// CycleHitRate is the fraction of the stream consumed by fused
	// trace-cycle traversals (compiled-stride rows only; 0 elsewhere).
	CycleHitRate float64 `json:"cycle_hit_rate"`
}

// ReplayBenchResult is the machine-readable replay micro-benchmark: the
// repo's perf trajectory for the replay hot path, written by teabench as
// BENCH_replay.json so successive PRs can be compared.
type ReplayBenchResult struct {
	Target uint64           `json:"target"`
	Rows   []ReplayBenchRow `json:"rows"`
}

// RunReplayBench measures ns/edge and allocs/edge for the reference
// replayer (hash and B+ tree containers), the compiled replayer (single-edge,
// batched, SoA-global and stride-specialized), on a captured dynamic block
// stream per benchmark. When opts
// names no benchmark subset it runs a representative set — the (mcf, gcc)
// SPEC-like pair plus the steady-state cycle workloads the stride kernel
// targets — instead of all benchmarks; wall-clock benchmarks are serial by
// nature and the full suite adds minutes without information.
func RunReplayBench(opts Options) (*ReplayBenchResult, error) {
	opts = opts.withDefaults()
	if len(opts.Benchmarks) == len(workload.Benchmarks()) {
		var set []workload.Spec
		for _, name := range []string{"mcf", "gcc", "901.steady", "902.stream"} {
			if s, ok := workload.ByName(name); ok {
				set = append(set, s)
			}
		}
		if len(set) > 0 {
			opts.Benchmarks = set
		}
	}
	benches, err := GenBenchmarks(opts)
	if err != nil {
		return nil, err
	}

	res := &ReplayBenchResult{Target: opts.Target}
	for _, b := range benches {
		d, err := dbt.New().Run(b.Prog, "mret", opts.TraceCfg, 0)
		if err != nil {
			return nil, err
		}
		a := core.Build(d.Set)

		cap := teatool.NewCaptureTool()
		if _, err := pin.New().Run(b.Prog, cap, 0); err != nil {
			return nil, err
		}
		stream := cap.Stream()
		if len(stream) == 0 {
			return nil, fmt.Errorf("%s: empty block stream", b.Spec.Name)
		}

		rows, err := benchStream(b.Spec.Name, a, stream)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// benchStream times every replayer configuration over one captured stream.
func benchStream(name string, a *core.Automaton, stream []core.Edge) ([]ReplayBenchRow, error) {
	hashLocal := core.LookupConfig{Global: core.GlobalHash, Local: true}
	compiled := core.Compile(a, core.ConfigGlobalLocal)
	compiledNoCache := core.Compile(a, core.ConfigGlobalNoLocal)

	refCov := func(lc core.LookupConfig) float64 {
		r := core.NewReplayer(a, lc)
		for _, e := range stream {
			r.Advance(e.Label, e.Instrs)
		}
		return r.Stats().Coverage()
	}
	specialized := core.Specialize(compiled, stream)
	hitRate := 0.0
	{
		r := core.NewCompiledReplayer(specialized)
		r.AdvanceBatch(stream)
		hitRate = float64(r.StrideEdges()) / float64(len(stream))
	}

	cases := []struct {
		config string
		cov    float64
		hit    float64
		run    func(b *testing.B)
	}{
		{"reference-hash-local", refCov(hashLocal), 0, func(b *testing.B) {
			r := core.NewReplayer(a, hashLocal)
			for i := 0; i < b.N; i++ {
				r.Reset()
				for _, e := range stream {
					r.Advance(e.Label, e.Instrs)
				}
			}
		}},
		{"reference-btree-local", refCov(core.ConfigGlobalLocal), 0, func(b *testing.B) {
			r := core.NewReplayer(a, core.ConfigGlobalLocal)
			for i := 0; i < b.N; i++ {
				r.Reset()
				for _, e := range stream {
					r.Advance(e.Label, e.Instrs)
				}
			}
		}},
		{"compiled", coverageOf(compiled, stream), 0, func(b *testing.B) {
			r := core.NewCompiledReplayer(compiled)
			for i := 0; i < b.N; i++ {
				r.Reset()
				for _, e := range stream {
					r.Advance(e.Label, e.Instrs)
				}
			}
		}},
		{"compiled-batch", coverageOf(compiled, stream), 0, func(b *testing.B) {
			r := core.NewCompiledReplayer(compiled)
			for i := 0; i < b.N; i++ {
				r.Reset()
				r.AdvanceBatch(stream)
			}
		}},
		// compiled-soa: the batched kernel over the SoA hot array with the
		// local caches off — the pure two-slots-plus-global-table path, so
		// the SoA split's cost shows without cache effects on top.
		{"compiled-soa", coverageOf(compiledNoCache, stream), 0, func(b *testing.B) {
			r := core.NewCompiledReplayer(compiledNoCache)
			for i := 0; i < b.N; i++ {
				r.Reset()
				r.AdvanceBatch(stream)
			}
		}},
		// compiled-stride: the batched kernel over the stride-specialized
		// form; on cycle-heavy streams whole steady-state traversals are
		// consumed per table hit (cycle_hit_rate says how much of the
		// stream fused).
		{"compiled-stride", coverageOf(specialized, stream), hitRate, func(b *testing.B) {
			r := core.NewCompiledReplayer(specialized)
			for i := 0; i < b.N; i++ {
				r.Reset()
				r.AdvanceBatch(stream)
			}
		}},
	}

	rows := make([]ReplayBenchRow, 0, len(cases))
	for _, c := range cases {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			c.run(b)
		})
		if r.N == 0 {
			return nil, fmt.Errorf("%s/%s: benchmark did not run", name, c.config)
		}
		perEdge := float64(r.N) * float64(len(stream))
		rows = append(rows, ReplayBenchRow{
			Bench:        name,
			Config:       c.config,
			Edges:        len(stream),
			NsPerOp:      float64(r.T.Nanoseconds()) / perEdge,
			AllocsPO:     float64(r.MemAllocs) / perEdge,
			Coverage:     c.cov,
			CycleHitRate: c.hit,
		})
	}
	return rows, nil
}

func coverageOf(c *core.Compiled, stream []core.Edge) float64 {
	r := core.NewCompiledReplayer(c)
	r.AdvanceBatch(stream)
	return r.Stats().Coverage()
}

// Render prints the replay benchmark as a table.
func (r *ReplayBenchResult) Render() string {
	t := stats.NewTable("benchmark", "config", "edges", "ns/edge", "allocs/edge", "coverage", "cycle-hit")
	for _, row := range r.Rows {
		hit := "-"
		if row.Config == "compiled-stride" {
			hit = stats.Pct(row.CycleHitRate)
		}
		t.AddRow(row.Bench, row.Config, fmt.Sprintf("%d", row.Edges),
			fmt.Sprintf("%.1f", row.NsPerOp), fmt.Sprintf("%.4f", row.AllocsPO),
			stats.Pct(row.Coverage), hit)
	}
	return t.String()
}
