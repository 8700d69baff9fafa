// Package obs is the runtime observability layer: a metrics registry with
// lock-free per-shard counters and fixed-bucket histograms, a bounded
// ring-buffer event tracer with a compact binary log format, and profiling
// hooks (Span/Probe) that the replay and record hot paths call through a
// nil-guarded sink.
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
	"encoding/json"
	"fmt"
	"io"
	"sort"
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
	name string
	help string
	c    [NumShards]cell
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

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Gauge is a last-value metric (table occupancy, resident trace blocks).
type Gauge struct {
	name string
	help string
	v    uint64
}

// Set stores the current value.
func (g *Gauge) Set(v uint64) { atomic.StoreUint64(&g.v, v) }

// Value returns the last stored value.
func (g *Gauge) Value() uint64 { return atomic.LoadUint64(&g.v) }

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Histogram is a fixed-bucket histogram: bounds are inclusive upper bucket
// edges fixed at registration (no dynamic rebucketing on the hot path),
// with one implicit +Inf overflow bucket, spread over NumShards cells like
// Counter. Observations and the running sum are integer-valued — probe
// depths, edge counts and gap lengths are all discrete.
type Histogram struct {
	name   string
	help   string
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

// Bounds returns the inclusive upper bucket edges.
func (h *Histogram) Bounds() []uint64 { return h.bounds }

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// CounterVec is a counter family with one low-cardinality label dimension
// (tenant, image, worker). Series are created on first use and capped at
// maxSeries: once the cap is reached, every unseen label value shares one
// overflow series rendered with the label value "_overflow", so a hostile
// or runaway caller can inflate a single number but never the series set.
// Release drops a series (an evicted tenant releases its label values); a
// later With for the same value starts a fresh series at zero.
type CounterVec struct {
	name, help, label string
	max               int
	mu                sync.RWMutex
	series            map[string]*Counter
	overflow          *Counter
}

// With returns the counter for one label value, creating it on first use
// (or returning the shared overflow counter past the series cap). The hit
// path is a read-locked map lookup; pre-resolve in session state rather
// than calling per edge.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c := v.series[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.series[value]; c != nil {
		return c
	}
	if len(v.series) >= v.max {
		if v.overflow == nil {
			v.overflow = &Counter{name: v.name}
		}
		return v.overflow
	}
	c = &Counter{name: v.name}
	v.series[value] = c
	return c
}

// Release drops the series for one label value, reporting whether it
// existed. The overflow series is never released.
func (v *CounterVec) Release(value string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	_, ok := v.series[value]
	delete(v.series, value)
	return ok
}

// Len returns the live series count (excluding the overflow series).
func (v *CounterVec) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.series)
}

// Name returns the metric name.
func (v *CounterVec) Name() string { return v.name }

// seriesView is one (label value, numeric value) pair in a deterministic
// vec snapshot.
type seriesView struct {
	value string
	num   uint64
}

// snapshotSeries returns the live series sorted by label value, with the
// overflow series (if any writes overflowed) last under "_overflow".
func (v *CounterVec) snapshotSeries() []seriesView {
	v.mu.RLock()
	out := make([]seriesView, 0, len(v.series)+1)
	for val, c := range v.series {
		out = append(out, seriesView{value: val, num: c.Value()})
	}
	overflow := v.overflow
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	if overflow != nil {
		out = append(out, seriesView{value: "_overflow", num: overflow.Value()})
	}
	return out
}

// GaugeVec is a gauge family with one label dimension, with the same
// bounded-cardinality and release semantics as CounterVec.
type GaugeVec struct {
	name, help, label string
	max               int
	mu                sync.RWMutex
	series            map[string]*Gauge
	overflow          *Gauge
}

// With returns the gauge for one label value, creating it on first use (or
// returning the shared overflow gauge past the series cap).
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.RLock()
	g := v.series[value]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g := v.series[value]; g != nil {
		return g
	}
	if len(v.series) >= v.max {
		if v.overflow == nil {
			v.overflow = &Gauge{name: v.name}
		}
		return v.overflow
	}
	g = &Gauge{name: v.name}
	v.series[value] = g
	return g
}

// Release drops the series for one label value, reporting whether it
// existed.
func (v *GaugeVec) Release(value string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	_, ok := v.series[value]
	delete(v.series, value)
	return ok
}

// Len returns the live series count (excluding the overflow series).
func (v *GaugeVec) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.series)
}

// Name returns the metric name.
func (v *GaugeVec) Name() string { return v.name }

func (v *GaugeVec) snapshotSeries() []seriesView {
	v.mu.RLock()
	out := make([]seriesView, 0, len(v.series)+1)
	for val, g := range v.series {
		out = append(out, seriesView{value: val, num: g.Value()})
	}
	overflow := v.overflow
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	if overflow != nil {
		out = append(out, seriesView{value: "_overflow", num: overflow.Value()})
	}
	return out
}

// escapeLabelValue escapes a label value for the Prometheus text exposition
// format (backslash, double quote and newline are the only characters that
// need escaping; everything else passes through verbatim).
func escapeLabelValue(v string) string {
	needs := false
	for i := 0; i < len(v); i++ {
		if c := v[i]; c == '\\' || c == '"' || c == '\n' {
			needs = true
			break
		}
	}
	if !needs {
		return v
	}
	out := make([]byte, 0, len(v)+8)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// Registry holds the named metrics of one observability context and renders
// them in deterministic (sorted-by-name) order. Registration is idempotent:
// asking for an existing name returns the existing metric, so hot-path
// owners can pre-resolve their metric set without coordinating.
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec

	cmu        sync.Mutex
	collectors []func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		hists:       make(map[string]*Histogram),
		counterVecs: make(map[string]*CounterVec),
		gaugeVecs:   make(map[string]*GaugeVec),
	}
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

// Counter returns the counter registered under name, creating it on first
// use. Names must be valid Prometheus metric names; a name already taken by
// a different metric kind panics (a programming error, not an input error).
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkName(name)
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkName(name)
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given inclusive upper bucket edges on first use (bounds must be
// ascending). Later calls ignore bounds and return the existing histogram.
func (r *Registry) Histogram(name, help string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkName(name)
	for i := 1; i < len(bounds); i++ {
		if bounds[i-1] >= bounds[i] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{name: name, help: help, bounds: append([]uint64(nil), bounds...)}
	for i := range h.shards {
		h.shards[i].buckets = make([]uint64, len(bounds)+1)
	}
	r.hists[name] = h
	return h
}

// DefaultMaxSeries is the per-vec series cap when the caller passes a
// non-positive one.
const DefaultMaxSeries = 64

// CounterVec returns the labeled counter family registered under name,
// creating it on first use with the given label name and series cap
// (non-positive means DefaultMaxSeries). Later calls ignore label and
// maxSeries and return the existing vec.
func (r *Registry) CounterVec(name, help, label string, maxSeries int) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.counterVecs[name]; ok {
		return v
	}
	r.checkName(name)
	if !validMetricName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	if maxSeries <= 0 {
		maxSeries = DefaultMaxSeries
	}
	v := &CounterVec{name: name, help: help, label: label, max: maxSeries, series: make(map[string]*Counter)}
	r.counterVecs[name] = v
	return v
}

// GaugeVec returns the labeled gauge family registered under name, creating
// it on first use with the given label name and series cap.
func (r *Registry) GaugeVec(name, help, label string, maxSeries int) *GaugeVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.gaugeVecs[name]; ok {
		return v
	}
	r.checkName(name)
	if !validMetricName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	if maxSeries <= 0 {
		maxSeries = DefaultMaxSeries
	}
	v := &GaugeVec{name: name, help: help, label: label, max: maxSeries, series: make(map[string]*Gauge)}
	r.gaugeVecs[name] = v
	return v
}

// checkName validates a metric name (called with r.mu held).
func (r *Registry) checkName(name string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	if _, ok := r.counterVecs[name]; ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	if _, ok := r.gaugeVecs[name]; ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
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

// snapshot gathers a deterministic, sorted view of the registry for export.
func (r *Registry) snapshot() (counters []*Counter, gauges []*Gauge, hists []*Histogram) {
	r.mu.RLock()
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.RUnlock()
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	return counters, gauges, hists
}

// snapshotVecs gathers the labeled families sorted by name.
func (r *Registry) snapshotVecs() (cvecs []*CounterVec, gvecs []*GaugeVec) {
	r.mu.RLock()
	for _, v := range r.counterVecs {
		cvecs = append(cvecs, v)
	}
	for _, v := range r.gaugeVecs {
		gvecs = append(gvecs, v)
	}
	r.mu.RUnlock()
	sort.Slice(cvecs, func(i, j int) bool { return cvecs[i].name < cvecs[j].name })
	sort.Slice(gvecs, func(i, j int) bool { return gvecs[i].name < gvecs[j].name })
	return cvecs, gvecs
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, sorted by name within each kind (counters, then gauges, then
// histograms; labeled families merge into their kind's section by name,
// series sorted by label value) so the output is stable and diffable.
// Registered collectors run first, so out-of-registry subsystem counters
// are folded in before the snapshot.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.collect()
	counters, gauges, hists := r.snapshot()
	cvecs, gvecs := r.snapshotVecs()
	for ci, vi := 0, 0; ci < len(counters) || vi < len(cvecs); {
		if vi >= len(cvecs) || (ci < len(counters) && counters[ci].name < cvecs[vi].name) {
			c := counters[ci]
			ci++
			if err := writeHeader(w, c.name, c.help, "counter"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", c.name, c.Value()); err != nil {
				return err
			}
			continue
		}
		v := cvecs[vi]
		vi++
		if err := writeHeader(w, v.name, v.help, "counter"); err != nil {
			return err
		}
		for _, s := range v.snapshotSeries() {
			if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", v.name, v.label, escapeLabelValue(s.value), s.num); err != nil {
				return err
			}
		}
	}
	for gi, vi := 0, 0; gi < len(gauges) || vi < len(gvecs); {
		if vi >= len(gvecs) || (gi < len(gauges) && gauges[gi].name < gvecs[vi].name) {
			g := gauges[gi]
			gi++
			if err := writeHeader(w, g.name, g.help, "gauge"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", g.name, g.Value()); err != nil {
				return err
			}
			continue
		}
		v := gvecs[vi]
		vi++
		if err := writeHeader(w, v.name, v.help, "gauge"); err != nil {
			return err
		}
		for _, s := range v.snapshotSeries() {
			if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", v.name, v.label, escapeLabelValue(s.value), s.num); err != nil {
				return err
			}
		}
	}
	for _, h := range hists {
		if err := writeHeader(w, h.name, h.help, "histogram"); err != nil {
			return err
		}
		buckets, count, sum := h.Buckets()
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", h.name, b, cum); err != nil {
				return err
			}
		}
		cum += buckets[len(buckets)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", h.name, sum, h.name, count); err != nil {
			return err
		}
	}
	return nil
}

func writeHeader(w io.Writer, name, help, kind string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
	return err
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
	r.collect()
	counters, gauges, hists := r.snapshot()
	cvecs, gvecs := r.snapshotVecs()
	out := make([]jsonMetric, 0, len(counters)+len(gauges)+len(hists))
	u := func(v uint64) *uint64 { return &v }
	for ci, vi := 0, 0; ci < len(counters) || vi < len(cvecs); {
		if vi >= len(cvecs) || (ci < len(counters) && counters[ci].name < cvecs[vi].name) {
			c := counters[ci]
			ci++
			out = append(out, jsonMetric{Name: c.name, Kind: "counter", Value: u(c.Value())})
			continue
		}
		v := cvecs[vi]
		vi++
		for _, s := range v.snapshotSeries() {
			out = append(out, jsonMetric{Name: v.name, Kind: "counter", Label: v.label, LabelValue: s.value, Value: u(s.num)})
		}
	}
	for gi, vi := 0, 0; gi < len(gauges) || vi < len(gvecs); {
		if vi >= len(gvecs) || (gi < len(gauges) && gauges[gi].name < gvecs[vi].name) {
			g := gauges[gi]
			gi++
			out = append(out, jsonMetric{Name: g.name, Kind: "gauge", Value: u(g.Value())})
			continue
		}
		v := gvecs[vi]
		vi++
		for _, s := range v.snapshotSeries() {
			out = append(out, jsonMetric{Name: v.name, Kind: "gauge", Label: v.label, LabelValue: s.value, Value: u(s.num)})
		}
	}
	for _, h := range hists {
		buckets, count, sum := h.Buckets()
		out = append(out, jsonMetric{
			Name: h.name, Kind: "histogram",
			Bounds: h.bounds, Buckets: buckets, Count: u(count), Sum: u(sum),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
