// Package obs is the runtime observability layer: a metrics registry with
// lock-free per-shard counters and fixed-bucket histograms, a bounded
// ring-buffer event tracer with a compact binary log format, and span
// timers for cold regions. Replay and record paths stage their events and
// hand them to Obs.IngestReplay, the one way into the event ring that also
// derives the replay histograms.
//
// The layer is disabled by default: every instrumented hot path holds a
// *Obs that is nil unless observability was explicitly attached, and the
// only disabled-mode cost is a predictable nil check on the slow branches
// (trace enter/exit, desync, global lookup) — the in-trace fast path and
// the batched replay loop are untouched, which is what keeps compiled
// batched replay at 0 allocs/edge with observability compiled in (see
// TestBatchZeroAllocSteadyState in internal/core).
//
// Metric naming follows the Prometheus exposition conventions; the metric
// set is stable and golden-tested so scrapes can be diffed across runs and
// versions. Events carry logical edge-index timestamps (the replay clock:
// how many stream edges had been consumed when the event fired), not wall
// time, so two replays of the same stream produce byte-identical logs.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// NumShards is the number of independent cells each counter and histogram
// spreads its updates over. Writers that own a shard update without
// contending; readers sum all the cells. The replay pipeline drain charges
// chunk seq to cell seq % NumShards; higher shard indices wrap.
const NumShards = 8

// cell is one padded counter cell: the value plus enough padding that two
// cells never share a cache line, so per-shard writers do not false-share.
type cell struct {
	v uint64
	_ [7]uint64
}

// Counter is a monotonically increasing metric with NumShards lock-free
// cells. The zero value is not usable; obtain counters from a Registry.
type Counter struct {
	c [NumShards]cell
}

// Add increments the counter's first cell (single-writer paths).
func (c *Counter) Add(n uint64) { atomic.AddUint64(&c.c[0].v, n) }

// AddShard increments the cell owned by shard (wrapping past NumShards),
// so concurrent shard owners never contend on one word.
func (c *Counter) AddShard(shard int, n uint64) {
	atomic.AddUint64(&c.c[shard&(NumShards-1)].v, n)
}

// Value sums the cells — the aggregate-on-read half of the per-shard design.
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.c {
		sum += atomic.LoadUint64(&c.c[i].v)
	}
	return sum
}

func (c *Counter) series() []seriesView { return []seriesView{{num: c.Value()}} }

// Gauge is a last-value metric (table occupancy, resident trace blocks).
type Gauge struct {
	v uint64
}

// Set stores the current value.
func (g *Gauge) Set(v uint64) { atomic.StoreUint64(&g.v, v) }

// Value returns the last stored value.
func (g *Gauge) Value() uint64 { return atomic.LoadUint64(&g.v) }

func (g *Gauge) series() []seriesView { return []seriesView{{num: g.Value()}} }

// Histogram is a fixed-bucket histogram: bounds are inclusive upper bucket
// edges fixed at registration (no dynamic rebucketing on the hot path),
// with one implicit +Inf overflow bucket, spread over NumShards cells like
// Counter. Observations and the running sum are integer-valued — probe
// depths, edge counts and gap lengths are all discrete.
type Histogram struct {
	bounds []uint64
	shards [NumShards]histCell
}

type histCell struct {
	buckets []uint64 // len(bounds)+1; atomically updated
	sum     uint64
	count   uint64
	_       [5]uint64
}

// Observe records v into the first cell (single-writer paths).
func (h *Histogram) Observe(v uint64) { h.ObserveShard(0, v) }

// ObserveShard records v into the cell owned by shard.
func (h *Histogram) ObserveShard(shard int, v uint64) {
	s := &h.shards[shard&(NumShards-1)]
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	atomic.AddUint64(&s.buckets[i], 1)
	atomic.AddUint64(&s.sum, v)
	atomic.AddUint64(&s.count, 1)
}

// Buckets returns the aggregated per-bucket counts (the final entry is the
// +Inf overflow bucket), the total observation count and the value sum.
func (h *Histogram) Buckets() (buckets []uint64, count, sum uint64) {
	buckets = make([]uint64, len(h.bounds)+1)
	for i := range h.shards {
		s := &h.shards[i]
		for j := range buckets {
			buckets[j] += atomic.LoadUint64(&s.buckets[j])
		}
		count += atomic.LoadUint64(&s.count)
		sum += atomic.LoadUint64(&s.sum)
	}
	return buckets, count, sum
}

// series is empty for a histogram: the exports render its buckets instead.
func (h *Histogram) series() []seriesView { return nil }

// DefaultMaxSeries caps the live series of every labeled family.
const DefaultMaxSeries = 64

// family is the one body of the labeled families, CounterVec and GaugeVec:
// a metric with one low-cardinality label dimension (tenant, image,
// worker). Series are created on first use and capped at DefaultMaxSeries:
// once the cap is reached, every unseen label value shares one overflow
// series rendered with the label value "_overflow", so a hostile or runaway
// caller can inflate a single number but never the series set. Release
// drops a series (an evicted tenant releases its label values); a later
// With for the same value starts a fresh series at zero.
type family struct {
	label    string
	mk       func() scalar
	mu       sync.RWMutex
	live     map[string]scalar
	overflow scalar
}

// scalar is one series of a family: a *Counter or a *Gauge.
type scalar interface{ Value() uint64 }

func newFamily(label string, mk func() scalar) family {
	if !validMetricName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	return family{label: label, mk: mk, live: make(map[string]scalar)}
}

// with returns the series for one label value, creating it on first use
// (or returning the shared overflow series past the cap). The hit path is
// a read-locked map lookup; pre-resolve in session state rather than
// calling per edge.
func (f *family) with(value string) scalar {
	f.mu.RLock()
	s := f.live[value]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.live[value]; s != nil {
		return s
	}
	if len(f.live) < DefaultMaxSeries {
		s = f.mk()
		f.live[value] = s
		return s
	}
	if f.overflow == nil {
		f.overflow = f.mk()
	}
	return f.overflow
}

// Release drops the series for one label value, reporting whether it
// existed. The overflow series is never released.
func (f *family) Release(value string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.live[value]
	delete(f.live, value)
	return ok
}

// Len returns the live series count (excluding the overflow series).
func (f *family) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.live)
}

// series returns the live series sorted by label value, with the overflow
// series (if any writes overflowed) last under "_overflow".
func (f *family) series() []seriesView {
	f.mu.RLock()
	out := make([]seriesView, 0, len(f.live)+1)
	for val, s := range f.live {
		out = append(out, seriesView{label: f.label, value: val, num: s.Value()})
	}
	overflow := f.overflow
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	if overflow != nil {
		out = append(out, seriesView{label: f.label, value: "_overflow", num: overflow.Value()})
	}
	return out
}

// CounterVec is a labeled counter family (see family).
type CounterVec struct{ family }

// With returns the counter for one label value.
func (v *CounterVec) With(value string) *Counter { return v.with(value).(*Counter) }

// GaugeVec is a labeled gauge family (see family).
type GaugeVec struct{ family }

// With returns the gauge for one label value.
func (v *GaugeVec) With(value string) *Gauge { return v.with(value).(*Gauge) }

// seriesView is one exported series: its label name and value (both empty
// for an unlabeled metric) and its number.
type seriesView struct {
	label, value string
	num          uint64
}

// labelEscaper escapes a label value for the Prometheus text exposition
// format: backslash, double quote and newline are the only characters that
// need escaping, and a value without them passes through unallocated.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// kind is a metric's exposition type; the exports render the kinds in
// this order.
type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string { return [...]string{"counter", "gauge", "histogram"}[k] }

// metric is what the registry's name table holds: a *Counter, *Gauge,
// *Histogram, *CounterVec or *GaugeVec.
type metric interface{ series() []seriesView }

// entry is one registered name.
type entry struct {
	name, help string
	kind       kind
	m          metric
}

// Registry holds the named metrics of one observability context and renders
// them in deterministic (sorted-by-name) order. Registration is idempotent:
// asking for an existing name returns the existing metric, so hot-path
// owners can pre-resolve their metric set without coordinating.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*entry

	cmu        sync.Mutex
	collectors []func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*entry)}
}

// AddCollector registers fn to run at the start of every export
// (WritePrometheus / WriteJSON), before the snapshot is taken. Subsystems
// that keep their own hot-path counters outside the registry — the pipeline
// keeps per-pipe atomics so workers never touch shared metric cells — sync
// them into registry metrics here, paying the fold only when someone
// actually scrapes.
func (r *Registry) AddCollector(fn func()) {
	r.cmu.Lock()
	r.collectors = append(r.collectors, fn)
	r.cmu.Unlock()
}

// collect runs the registered collectors. The list is copied first so a
// collector can itself register metrics without deadlocking.
func (r *Registry) collect() {
	r.cmu.Lock()
	fns := append([]func(){}, r.collectors...)
	r.cmu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// register returns the metric registered under name, creating it with mk
// on first use. Names must be valid Prometheus metric names; a name already
// taken by a different metric type panics (a programming error, not an
// input error).
func register[M metric](r *Registry, name, help string, k kind, mk func() M) M {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok {
		if m, ok := e.m.(M); ok {
			return m
		}
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	m := mk()
	r.metrics[name] = &entry{name: name, help: help, kind: k, m: m}
	return m
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name, help string) *Counter {
	return register(r, name, help, counterKind, func() *Counter { return new(Counter) })
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, help, gaugeKind, func() *Gauge { return new(Gauge) })
}

// Histogram returns the histogram registered under name, creating it with
// the given inclusive upper bucket edges on first use (bounds must be
// ascending). Later calls ignore bounds and return the existing histogram.
func (r *Registry) Histogram(name, help string, bounds []uint64) *Histogram {
	return register(r, name, help, histogramKind, func() *Histogram {
		for i := 1; i < len(bounds); i++ {
			if bounds[i-1] >= bounds[i] {
				panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
			}
		}
		h := &Histogram{bounds: append([]uint64(nil), bounds...)}
		for i := range h.shards {
			h.shards[i].buckets = make([]uint64, len(bounds)+1)
		}
		return h
	})
}

// CounterVec returns the labeled counter family registered under name,
// creating it on first use with the given label name. Later calls ignore
// label and return the existing family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return register(r, name, help, counterKind, func() *CounterVec {
		return &CounterVec{newFamily(label, func() scalar { return new(Counter) })}
	})
}

// GaugeVec returns the labeled gauge family registered under name, creating
// it on first use with the given label name.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return register(r, name, help, gaugeKind, func() *GaugeVec {
		return &GaugeVec{newFamily(label, func() scalar { return new(Gauge) })}
	})
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// walk is the one export order: it runs the collectors, then returns every
// registered name sorted by kind (counters, gauges, histograms) and then
// by name, so a labeled family sits among the plain metrics of its kind.
func (r *Registry) walk() []*entry {
	r.collect()
	r.mu.RLock()
	es := make([]*entry, 0, len(r.metrics))
	for _, e := range r.metrics {
		es = append(es, e)
	}
	r.mu.RUnlock()
	sort.Slice(es, func(i, j int) bool {
		if es[i].kind != es[j].kind {
			return es[i].kind < es[j].kind
		}
		return es[i].name < es[j].name
	})
	return es
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, in walk order with a family's series sorted by label value, so
// the output is stable and diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// A write error sticks in bw: later writes are dropped and Flush
	// returns it.
	bw := bufio.NewWriter(w)
	for _, e := range r.walk() {
		if e.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", e.name, e.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", e.name, e.kind)
		for _, s := range e.m.series() {
			if s.label == "" {
				fmt.Fprintf(bw, "%s %d\n", e.name, s.num)
			} else {
				fmt.Fprintf(bw, "%s{%s=\"%s\"} %d\n", e.name, s.label, labelEscaper.Replace(s.value), s.num)
			}
		}
		if h, ok := e.m.(*Histogram); ok {
			buckets, count, sum := h.Buckets()
			cum := uint64(0)
			for i, b := range h.bounds {
				cum += buckets[i]
				fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", e.name, b, cum)
			}
			cum += buckets[len(h.bounds)]
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n", e.name, cum, e.name, sum, e.name, count)
		}
	}
	return bw.Flush()
}

// jsonMetric is the JSON rendering of one metric (or one series of a
// labeled family, which carries Label/LabelValue).
type jsonMetric struct {
	Name       string   `json:"name"`
	Kind       string   `json:"kind"`
	Label      string   `json:"label,omitempty"`
	LabelValue string   `json:"label_value,omitempty"`
	Value      *uint64  `json:"value,omitempty"`
	Bounds     []uint64 `json:"bounds,omitempty"`
	Buckets    []uint64 `json:"buckets,omitempty"`
	Count      *uint64  `json:"count,omitempty"`
	Sum        *uint64  `json:"sum,omitempty"`
}

// WriteJSON renders the registry as a deterministic JSON array (same order
// as WritePrometheus), for machine diffing and the /metrics.json endpoint.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := []jsonMetric{}
	u := func(v uint64) *uint64 { return &v }
	for _, e := range r.walk() {
		for _, s := range e.m.series() {
			out = append(out, jsonMetric{Name: e.name, Kind: e.kind.String(), Label: s.label, LabelValue: s.value, Value: u(s.num)})
		}
		if h, ok := e.m.(*Histogram); ok {
			buckets, count, sum := h.Buckets()
			out = append(out, jsonMetric{
				Name: e.name, Kind: e.kind.String(),
				Bounds: h.bounds, Buckets: buckets, Count: u(count), Sum: u(sum),
			})
		}
	}
	return writeJSON(w, out)
}

// writeJSON renders v as indented JSON, the layout of every JSON export.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
