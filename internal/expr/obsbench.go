package expr

import (
	"context"
	"fmt"
	"net"
	"testing"

	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/dbt"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/serve"
	"github.com/lsc-tea/tea/internal/serve/client"
	"github.com/lsc-tea/tea/internal/stats"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/workload"
)

// ObsBenchRow is one (benchmark, replayer configuration, observability
// mode) measurement. The obs-off rows are the hard requirement — the
// disabled fast path must stay at the PR 4 numbers (0 allocs/edge on the
// compiled batch, ns/edge within the CI gate) — and the obs-on rows are
// the checked-in record of what enabling the layer costs.
type ObsBenchRow struct {
	Bench    string  `json:"bench"`
	Config   string  `json:"config"`
	Obs      string  `json:"obs"` // "off" or "on"
	Edges    int     `json:"edges"`
	NsPerOp  float64 `json:"ns_per_edge"`
	AllocsPO float64 `json:"allocs_per_edge"`
}

// ObsBenchResult is the machine-readable observability overhead benchmark,
// written by teabench as BENCH_obs.json.
type ObsBenchResult struct {
	Target uint64        `json:"target"`
	Rows   []ObsBenchRow `json:"rows"`
}

// obsBenchRounds mirrors recordBenchRounds: ns/edge keeps the fastest of
// three rounds (noise is strictly additive), allocs/edge the worst.
const obsBenchRounds = 3

// RunObsBench measures the enabled and disabled cost of the observability
// layer on the compiled replay kernels (batched and stride-specialized) and
// on the wire serve path. Like RunReplayBench it defaults to a
// representative set: the (mcf, gcc) pair plus the 901.steady cycle
// workload, where the stride kernel's obs-off/obs-on split matters most.
func RunObsBench(opts Options) (*ObsBenchResult, error) {
	opts = opts.withDefaults()
	if len(opts.Benchmarks) == len(workload.Benchmarks()) {
		var set []workload.Spec
		for _, name := range []string{"mcf", "gcc", "901.steady"} {
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

	res := &ObsBenchResult{Target: opts.Target}
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

		rows, err := obsBenchStream(b.Spec.Name, a, stream)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)

		srows, err := obsBenchServe(b.Spec.Name, b.Prog, a, stream)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, srows...)
	}
	return res, nil
}

// obsBenchStream times the fast paths with and without an attached
// observability context over one captured stream.
func obsBenchStream(name string, a *core.Automaton, stream []core.Edge) ([]ObsBenchRow, error) {
	compiled := core.Compile(a, core.ConfigGlobalLocal)
	specialized := core.Specialize(compiled, stream)

	// A single long-lived context per enabled case: counters and histograms
	// accumulate across iterations exactly as they would in a long-running
	// serve loop, so the measurement includes steady-state ring overwrites.
	batchObs := obs.New()
	strideObs := obs.New()

	// The batch cursors live across iterations (Reset per pass), matching
	// BENCH_replay.json's compiled-batch rows: the steady-state loop itself
	// must be allocation-free, not merely amortize a per-pass allocation.
	batchOff := core.NewCompiledReplayer(compiled)
	batchOn := core.NewCompiledReplayer(compiled)
	batchOn.SetObs(batchObs)
	strideOff := core.NewCompiledReplayer(specialized)
	strideOn := core.NewCompiledReplayer(specialized)
	strideOn.SetObs(strideObs)

	cases := []struct {
		config string
		mode   string
		pass   func()
	}{
		{"compiled-batch", "off", func() {
			batchOff.Reset()
			batchOff.AdvanceBatch(stream)
		}},
		{"compiled-batch", "on", func() {
			batchOn.Reset()
			batchOn.AdvanceBatch(stream)
		}},
		// The obs-on stride kernel only fuses miss-free cycles (warm hits
		// must fire EntryTableHit events), so its overhead row also shows
		// the fusion the twin gives up for event fidelity.
		{"compiled-stride", "off", func() {
			strideOff.Reset()
			strideOff.AdvanceBatch(stream)
		}},
		{"compiled-stride", "on", func() {
			strideOn.Reset()
			strideOn.AdvanceBatch(stream)
		}},
	}

	rows := make([]ObsBenchRow, 0, len(cases))
	for _, c := range cases {
		row := ObsBenchRow{Bench: name, Config: c.config, Obs: c.mode, Edges: len(stream)}
		// Allocations are measured exactly (not averaged out of a timed
		// loop): the obs-off zero-alloc claim is an equality, so it needs
		// AllocsPerRun's precise count, taken before the timing rounds warm
		// anything further.
		row.AllocsPO = testing.AllocsPerRun(3, c.pass) / float64(len(stream))
		for round := 0; round < obsBenchRounds; round++ {
			r := testing.Benchmark(func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					c.pass()
				}
			})
			if r.N == 0 {
				return nil, fmt.Errorf("%s/%s/%s: benchmark did not run", name, c.config, c.mode)
			}
			ns := float64(r.T.Nanoseconds()) / (float64(r.N) * float64(len(stream)))
			if round == 0 || ns < row.NsPerOp {
				row.NsPerOp = ns
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// obsBenchServe times the full wire serve path — session open, batched
// edge streaming over an in-memory connection, close — with the
// per-session trace events disabled ("off", Config.DisableSessionEvents)
// and enabled ("on", the default). The row is session ns/edge: frame
// encode, CRC, server-side replay, per-tenant metric folds, and the final
// stats ack all land in the number, so the off/on pair prices exactly
// what the session event stream costs a serving deployment.
func obsBenchServe(name string, prog *isa.Program, a *core.Automaton, stream []core.Edge) ([]ObsBenchRow, error) {
	const image = "bench"
	rows := make([]ObsBenchRow, 0, 2)
	for _, mode := range []string{"off", "on"} {
		s := serve.NewServer(serve.Config{DisableSessionEvents: mode == "off"})
		if err := s.Host(image, prog, a); err != nil {
			return nil, err
		}
		dial := func() (net.Conn, error) {
			cc, sc := net.Pipe()
			go s.ServeConn(sc)
			return cc, nil
		}
		c, err := client.New(client.Config{Tenant: "bench", Dial: dial, Seed: 1})
		if err != nil {
			return nil, err
		}
		var passErr error
		pass := func() {
			if _, _, err := c.Replay(context.Background(), image, stream, 512); err != nil && passErr == nil {
				passErr = err
			}
		}

		row := ObsBenchRow{Bench: name, Config: "serve-session", Obs: mode, Edges: len(stream)}
		// The serve path crosses goroutines, so allocs/edge here is the
		// whole-process count (client framing + server session) — recorded
		// for the trend line, not gated like the compiled rows.
		row.AllocsPO = testing.AllocsPerRun(3, pass) / float64(len(stream))
		for round := 0; round < obsBenchRounds; round++ {
			r := testing.Benchmark(func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					pass()
				}
			})
			if r.N == 0 {
				return nil, fmt.Errorf("%s/serve-session/%s: benchmark did not run", name, mode)
			}
			ns := float64(r.T.Nanoseconds()) / (float64(r.N) * float64(len(stream)))
			if round == 0 || ns < row.NsPerOp {
				row.NsPerOp = ns
			}
		}
		if cerr := c.Close(); cerr != nil && passErr == nil {
			passErr = cerr
		}
		if passErr != nil {
			return nil, fmt.Errorf("%s/serve-session/%s: %w", name, mode, passErr)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Render prints the observability overhead benchmark as a table, pairing
// each configuration's off/on rows with the relative slowdown.
func (r *ObsBenchResult) Render() string {
	t := stats.NewTable("benchmark", "config", "obs", "edges", "ns/edge", "allocs/edge", "overhead")
	base := make(map[string]float64)
	for _, row := range r.Rows {
		if row.Obs == "off" {
			base[row.Bench+"/"+row.Config] = row.NsPerOp
		}
	}
	for _, row := range r.Rows {
		overhead := "—"
		if b, ok := base[row.Bench+"/"+row.Config]; ok && row.Obs == "on" && b > 0 {
			overhead = fmt.Sprintf("%+.1f%%", (row.NsPerOp/b-1)*100)
		}
		t.AddRow(row.Bench, row.Config, row.Obs, fmt.Sprintf("%d", row.Edges),
			fmt.Sprintf("%.1f", row.NsPerOp), fmt.Sprintf("%.4f", row.AllocsPO), overhead)
	}
	return t.String()
}
