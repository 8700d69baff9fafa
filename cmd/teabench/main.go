// Command teabench regenerates the paper's evaluation tables (Tables 1-4)
// on the synthetic SPEC CPU2000 workloads.
//
// Usage:
//
//	teabench -table 1            # Table 1: size savings (MRET/CTT/TT)
//	teabench -table 2            # Table 2: replay coverage and time
//	teabench -table 3            # Table 3: recording coverage and time
//	teabench -table 4            # Table 4: transition-function ablation
//	teabench -table all          # everything
//	teabench -target 500000      # dynamic instructions per benchmark
//	teabench -bench gcc,swim     # subset of benchmarks
//	teabench -threshold 50       # hot threshold
//
// The hot-path micro-benchmarks (replay, recording, observability, the
// pipeline and serve sessions) are `go test -bench` benchmarks beside the
// code they time; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/lsc-tea/tea/internal/expr"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

func main() {
	table := flag.String("table", "all", "table to regenerate: 1, 2, 3, 4 or all")
	target := flag.Uint64("target", 5_000_000, "dynamic instructions per benchmark")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (default all 26)")
	threshold := flag.Int("threshold", 0, "hot threshold for trace selection (0 = scaled default)")
	parallel := flag.Int("parallel", 0, "worker goroutines (default GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of tables")
	list := flag.Bool("list", false, "list the synthetic benchmarks and exit")
	flag.Parse()
	emitJSON = *jsonOut

	if *list {
		fmt.Printf("%-14s %-5s %6s %6s %6s %7s %6s %5s\n",
			"benchmark", "suite", "funcs", "stmts", "loops", "iters", "branch", "bias")
		for _, s := range workload.Benchmarks() {
			fmt.Printf("%-14s %-5s %6d %6d %6d %7d %6.2f %5d\n",
				s.Name, s.Suite, s.Funcs, s.Stmts, s.LoopDepth, s.LoopIters, s.BranchProb, s.BiasBits)
		}
		return
	}

	opts := expr.Options{
		Target:   *target,
		TraceCfg: trace.Config{HotThreshold: *threshold},
		Parallel: *parallel,
	}
	if *benchList != "" {
		for _, name := range strings.Split(*benchList, ",") {
			spec, ok := workload.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "teabench: unknown benchmark %q\n", name)
				os.Exit(1)
			}
			opts.Benchmarks = append(opts.Benchmarks, spec)
		}
	}

	want := func(n string) bool { return *table == "all" || *table == n }
	start := time.Now()

	if want("1") {
		run("Table 1: Size Savings with TEA (KB)", func() (interface{ Render() string }, error) {
			return expr.RunTable1(opts)
		})
	}
	if want("2") {
		run("Table 2: TEA Runtime Aspects - Replaying (time in M units)", func() (interface{ Render() string }, error) {
			return expr.RunTable2(opts)
		})
	}
	if want("3") {
		run("Table 3: TEA Runtime Aspects - Recording (time in M units)", func() (interface{ Render() string }, error) {
			return expr.RunTable3(opts)
		})
	}
	if want("4") {
		run("Table 4: TEA Overhead for Various Configurations (x native)", func() (interface{ Render() string }, error) {
			return expr.RunTable4(opts)
		})
	}
	fmt.Fprintf(os.Stderr, "teabench: done in %v\n", time.Since(start).Round(time.Millisecond))
}

// emitJSON switches output to machine-readable JSON.
var emitJSON bool

func run(title string, f func() (interface{ Render() string }, error)) {
	res, err := f()
	if err != nil {
		fmt.Fprintf(os.Stderr, "teabench: %v\n", err)
		os.Exit(1)
	}
	if emitJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"title": title, "result": res}); err != nil {
			fmt.Fprintf(os.Stderr, "teabench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("=== %s ===\n", title)
	fmt.Println(res.Render())
}
