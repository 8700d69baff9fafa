package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// result is what one run of a workload loop measured and checked.
type result struct {
	attempted, failed int
	firstErr          error
	edges             uint64          // edges of the measured operations
	ops               []opSample      // measured operations, publishes included
	rtts              []time.Duration // serve-sessions: Edges frame write to EdgesAck read
	pubs              []time.Duration // serve-sessions: client.Publish latencies
}

// opSample is one measured operation: a session, a publish or a pass.
type opSample struct {
	start   time.Time
	dur     time.Duration
	edges   uint64
	publish bool // no edges, and left out of the operation latencies
}

// check counts one attempted operation, failed when err is non-nil.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// merge folds o's counts and samples into r.
func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.edges += o.edges
	r.ops = append(r.ops, o.ops...)
	r.rtts = append(r.rtts, o.rtts...)
	r.pubs = append(r.pubs, o.pubs...)
}

// sliceLen and minBlockOps set how a run is read: its time is cut into
// one-second slices from the first operation's start, consecutive slices
// merge until minBlockOps operations start in them, and each end-to-end
// metric is the median over those blocks. Load from outside the process
// comes in bursts shorter than a run, and a median over blocks moves less
// with a burst than a whole-run mean or quantile does.
const (
	sliceLen    = time.Second
	minBlockOps = 20
)

// block is one block's reading.
type block struct{ rate, p50, p90 float64 }

// blocks cuts the measured operations into blocks, which tile the time
// from the first operation's start, and reads each. The last block ends
// when the last operation does; a last stretch too short to make a block
// is left out unless it is the only one.
func (r *result) blocks() []block {
	ops := append([]opSample(nil), r.ops...)
	sort.Slice(ops, func(i, k int) bool { return ops[i].start.Before(ops[k].start) })
	if len(ops) == 0 {
		return nil
	}
	var out []block
	var lat []time.Duration
	from := ops[0].start
	end := from.Add(sliceLen)
	last := from
	for _, op := range ops {
		if !op.start.Before(end) && len(lat) >= minBlockOps {
			out = append(out, readBlock(ops, from, end, lat))
			from, lat = end, nil
		}
		for !op.start.Before(end) {
			end = end.Add(sliceLen)
		}
		if !op.publish {
			lat = append(lat, op.dur)
		}
		if e := op.start.Add(op.dur); e.After(last) {
			last = e
		}
	}
	if len(lat) >= minBlockOps || (len(out) == 0 && len(lat) > 0) {
		out = append(out, readBlock(ops, from, last, lat))
	}
	return out
}

// readBlock reads the block of time [from, to). Its edge rate is the
// edges processed inside it over its wall time, so the time between
// operations (resets, shutdowns, answer checks) counts against the rate;
// an operation straddling an edge of the block lends it the share of its
// edges that falls inside. lat are the latencies of the operations that
// start in the block.
func readBlock(ops []opSample, from, to time.Time, lat []time.Duration) block {
	var edges float64
	for _, op := range ops {
		lo, hi := op.start, op.start.Add(op.dur)
		if lo.Before(from) {
			lo = from
		}
		if hi.After(to) {
			hi = to
		}
		if hi.After(lo) {
			edges += float64(op.edges) * float64(hi.Sub(lo)) / float64(op.dur)
		}
	}
	return block{
		rate: edges / to.Sub(from).Seconds(),
		p50:  msQuantile(lat, 0.5),
		p90:  msQuantile(lat, 0.9),
	}
}

// readings returns the edge rate and the p50 and p90 operation latencies
// over the blocks of the run.
func (r *result) readings() (rate, p50, p90 reading) {
	var rs, p50s, p90s []float64
	for _, b := range r.blocks() {
		rs, p50s, p90s = append(rs, b.rate), append(p50s, b.p50), append(p90s, b.p90)
	}
	return readingOf(rs), readingOf(p50s), readingOf(p90s)
}

// endToEnd returns the timed end-to-end metrics every workload reports in
// its JSON line (setup_s and peak_rss_mb come from the process).
func (r *result) endToEnd() metrics {
	rate, p50, p90 := r.readings()
	var m metrics
	m.add("edges_per_s", rate.median, "edges/s")
	m.add("op_p50_ms", p50.median, "ms")
	m.add("op_p90_ms", p90.median, "ms")
	return m
}

// extra returns the end-to-end metrics the report prints but the JSON line
// leaves out: failed_ratio is 0 on a correct run, and the batch and
// publish metrics exist only on serve-sessions.
func (r *result) extra() metrics {
	var m metrics
	m.add("failed_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	if len(r.rtts) > 0 {
		m.add("batch_rtt_p50_us", usQuantile(r.rtts, 0.5), "us")
		m.add("batch_rtt_p99_us", usQuantile(r.rtts, 0.99), "us")
	}
	if len(r.pubs) > 0 {
		m.add("publish_p50_ms", msQuantile(r.pubs, 0.5), "ms")
	}
	return m
}

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

type metrics []metric

func (m *metrics) add(name string, v float64, unit string) {
	*m = append(*m, metric{name: name, value: v, unit: unit})
}

// metricValue and summary are the shape of the JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// reading is a median with its spread, the distance between the first and
// third quartiles, over repeated measurements.
type reading struct{ median, iqr float64 }

func readingOf(xs []float64) reading {
	return reading{median: quantile(xs, 0.5), iqr: quantile(xs, 0.75) - quantile(xs, 0.25)}
}

func (r reading) String() string { return fmt.Sprintf("median %.4f IQR %.4f", r.median, r.iqr) }

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

func msQuantile(ds []time.Duration, q float64) float64 { return durQuantile(ds, q, time.Millisecond) }
func usQuantile(ds []time.Duration, q float64) float64 { return durQuantile(ds, q, time.Microsecond) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perUnit returns d in nanoseconds per one of n units.
func perUnit(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// pct is v's change over base, in percent (0 when base is 0).
func pct(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (v - base) / base
}

// resetPeakRSS makes Linux restart the process's peak resident set size
// from its current size (clear_refs value 5), so the peak read afterwards
// covers only what follows. It reports false where the kernel does not
// allow it.
func resetPeakRSS() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, err = f.Write([]byte("5"))
	return f.Close() == nil && err == nil
}

// peakRSSMB is the process's peak resident set size: VmHWM in
// /proc/self/status, the peak resetPeakRSS restarts, or where that cannot
// be read, getrusage(2)'s peak over the whole process life (both are in
// kilobytes).
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, ln := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
