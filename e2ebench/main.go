// Command e2ebench is the repository's end-to-end benchmark. One process
// sets up the four programs every workload shares — generation, DBT trace
// recording, stream capture, and Server.Host with its static verification —
// then drives one named workload in a closed loop for a fixed time and
// checks every answer against an independent reference:
//
//	serve-sessions    wire sessions over net.Pipe into Server.ServeConn,
//	                  driven by client.Replay on one connection, with a
//	                  client.Publish on every publishEvery-th operation
//	replay-aperiodic  the captured 176.gcc stream through pipeline.NewReplay
//	record-cold       online recording from an empty automaton through a
//	                  fresh pipeline.NewRecord per pass
//
// BENCHMARK.json lists the first two: record-cold's pass time follows the
// host's load too closely for a bound (README.md, "Spread"), so it runs
// only on request, and every traced run times its layers.
//
// Usage:
//
//	e2ebench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// A readable report comes first; the last line of standard output is one
// JSON object with the end-to-end metrics (-trace 0) or the per-layer
// metrics of the traced run (-trace 1). Every layer is timed from this
// package, around calls into its exported functions. README.md describes
// the workloads, the metrics and what each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order README.md describes them.
var workloadNames = []string{"serve-sessions", "replay-aperiodic", "record-cold"}

// setupReps is how many times an end-to-end run sets the world up;
// setup_s is the median.
const setupReps = 3

// overheadSlice is how long the traced run's overhead measurement stays
// traced or untraced before it switches.
const overheadSlice = time.Second

// spanDir is where the traced run writes its spans, relative to the
// working directory; run.sh runs from the checkout root, so they land in
// .bench_build beside the build. The tests point it elsewhere.
var spanDir = filepath.Join(".bench_build", "spans")

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// bench is one invocation's settings and output.
type bench struct {
	workload string
	seed     int64
	dur      time.Duration
	out      io.Writer
}

// run parses args, runs the benchmark and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed of every random draw")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == *name
	}
	if !known || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "e2ebench: need -workload %s, -seconds > 0 and -trace 0 or 1\n", strings.Join(workloadNames, "|"))
		return 2
	}
	b := &bench{workload: *name, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), out: stdout}
	var err error
	if *traced == 0 {
		err = b.endToEnd(ctx)
	} else {
		err = b.traced(ctx)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	return 0
}

// endToEnd sets the world up setupReps times, runs the workload untraced
// and reports the end-to-end metrics.
func (b *bench) endToEnd(ctx context.Context) error {
	var setups []float64
	var w *world
	for i := 0; i < setupReps; i++ {
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = setupWorld(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	j, err := b.prepare(w)
	if err != nil {
		return err
	}
	// The earlier set-ups' memory goes back to the kernel and the peak
	// restarts here, so peak_rss_mb is the measured loop's peak over the
	// live world, not the set-up's.
	debug.FreeOSMemory()
	loopPeak := resetPeakRSS()
	res, err := b.measure(ctx, j, b.dur, nil)
	if err != nil {
		return err
	}
	var m metrics
	m.add("setup_s", quantile(setups, 0.5), "s")
	m = append(m, res.endToEnd()...)
	m.add("peak_rss_mb", peakRSSMB(), "MB")
	b.report(m)
	b.report(res.extra())
	if !loopPeak {
		b.printf("peak_rss_mb covers the whole process: the kernel did not let it restart the peak")
	}
	rate, p50, p90 := res.readings()
	blocks := len(res.blocks())
	b.printf("spread setup_s %s s over %d set-ups", readingOf(setups), len(setups))
	b.printf("spread edges_per_s %s edges/s over %d blocks", rate, blocks)
	b.printf("spread op_p50_ms %s ms over %d blocks", p50, blocks)
	b.printf("spread op_p90_ms %s ms over %d blocks", p90, blocks)
	b.printf("samples %d measured operations, %d batch round trips, %d publishes", len(res.ops), len(res.rtts), len(res.pubs))
	return b.finish(res, m)
}

// traced measures the tracing overhead, then every layer, reports the
// per-layer metrics and writes the spans out.
func (b *bench) traced(ctx context.Context) error {
	w, err := setupWorld()
	if err != nil {
		return err
	}
	j, err := b.prepare(w)
	if err != nil {
		return err
	}
	log := newSpanLog()
	res, p50Overhead, err := b.overhead(ctx, j, log)
	if err != nil {
		return err
	}
	m, layerRes, err := measureLayers(ctx, w, j, log, b.printf)
	if err != nil {
		return err
	}
	m.add("trace.op_p50_overhead_pct", p50Overhead, "%")
	b.report(m)
	kept, dropped := log.counts()
	b.printf("spans %d kept, %d dropped", kept, dropped)
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spanDir, b.workload+".tsv")
	if err := log.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	b.printf("spans written to %s", path)
	res.merge(layerRes)
	return b.finish(res, m)
}

// overhead runs the workload for b.dur as pairs of equal slices, one
// untraced and one traced, swapping their order from pair to pair, so a
// host whose speed drifts moves both halves of a pair alike. It prints
// each end-to-end metric's median paired difference, and returns every
// operation it checked and op_p50_ms's median paired difference in
// percent.
func (b *bench) overhead(ctx context.Context, j *jobs, log *spanLog) (*result, float64, error) {
	slice := min(overheadSlice, b.dur/2)
	pairs := max(1, int(b.dur/(2*slice)))
	all := &result{}
	var names []metric
	delta, rel := make(map[string][]float64), make(map[string][]float64)
	for i := 0; i < pairs; i++ {
		var plain, traced metrics
		for k := 0; k < 2; k++ {
			l := log
			if (i+k)%2 == 0 {
				l = nil
			}
			r, err := b.measure(ctx, j, slice, l)
			if err != nil {
				return nil, 0, err
			}
			all.merge(r)
			if l == nil {
				plain = append(r.endToEnd(), r.extra()...)
			} else {
				traced = append(r.endToEnd(), r.extra()...)
			}
		}
		for _, u := range plain {
			for _, t := range traced {
				if t.name != u.name {
					continue
				}
				if _, seen := delta[u.name]; !seen {
					names = append(names, u)
				}
				delta[u.name] = append(delta[u.name], t.value-u.value)
				rel[u.name] = append(rel[u.name], pct(t.value, u.value))
			}
		}
	}
	for _, u := range names {
		b.printf("overhead %-18s traced minus untraced %+14.4f %s (%+.1f%%), median of %d pairs",
			u.name, quantile(delta[u.name], 0.5), u.unit, quantile(rel[u.name], 0.5), len(delta[u.name]))
	}
	return all, quantile(rel["op_p50_ms"], 0.5), nil
}

// prepare draws every workload's inputs from the seed, computes their
// reference answers and prints the digest of everything drawn.
func (b *bench) prepare(w *world) (*jobs, error) {
	j, err := newJobs(w, b.seed)
	if err != nil {
		return nil, err
	}
	b.printf("schedule %s", j.digest())
	return j, nil
}

// measure runs the workload's loop for d after a warm-up of a tenth of d
// (at most a second) whose operations are checked but not measured.
func (b *bench) measure(ctx context.Context, j *jobs, d time.Duration, log *spanLog) (*result, error) {
	runtime.GC()
	from := time.Now().Add(min(d/10, time.Second))
	res, err := j.loop(b.workload)(ctx, from, from.Add(d), log)
	if err != nil {
		return nil, err
	}
	if res.edges == 0 {
		return nil, fmt.Errorf("%s: no operation measured in %v", b.workload, d)
	}
	return res, nil
}

func (b *bench) printf(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

func (b *bench) report(m metrics) {
	for _, x := range m {
		b.printf("metric %-38s %16.4f %s", x.name, x.value, x.unit)
	}
}

// finish prints the JSON line: whether every answer was correct, the
// operations attempted and failed, and the metrics.
func (b *bench) finish(res *result, m metrics) error {
	if res.attempted == 0 {
		return errors.New("no operation attempted")
	}
	if res.firstErr != nil {
		b.printf("first failure: %v", res.firstErr)
	}
	out := summary{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(m))}
	for _, x := range m {
		if math.IsNaN(x.value) || math.IsInf(x.value, 0) {
			return fmt.Errorf("metric %s has no finite value", x.name)
		}
		out.Metrics[x.name] = metricValue{Value: x.value, Unit: x.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(b.out, "%s\n", line)
	return err
}
