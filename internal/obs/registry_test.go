package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestCounterShardsSum(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "h")
	var wg sync.WaitGroup
	for s := 0; s < NumShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.AddShard(s, 1)
			}
		}(s)
	}
	wg.Wait()
	if got := c.Value(); got != NumShards*1000 {
		t.Fatalf("Value = %d, want %d", got, NumShards*1000)
	}
	// Shard indices wrap rather than index out of range.
	c.AddShard(NumShards+3, 5)
	if got := c.Value(); got != NumShards*1000+5 {
		t.Fatalf("Value after wrap = %d, want %d", got, NumShards*1000+5)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "h", []uint64{1, 4, 16})
	for _, v := range []uint64{0, 1, 2, 4, 5, 16, 17, 1000} {
		h.Observe(v)
	}
	buckets, count, sum := h.Buckets()
	// le=1: {0,1}; le=4: {2,4}; le=16: {5,16}; +Inf: {17,1000}.
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if buckets[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, buckets[i], w, buckets)
		}
	}
	if count != 8 {
		t.Fatalf("count = %d, want 8", count)
	}
	if sum != 0+1+2+4+5+16+17+1000 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestHistogramShardAggregation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "h", []uint64{10})
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.ObserveShard(s, uint64(i%20))
			}
		}(s)
	}
	wg.Wait()
	_, count, _ := h.Buckets()
	if count != 2000 {
		t.Fatalf("count = %d, want 2000", count)
	}
}

func TestRegistryIdempotentAndValidated(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "h")
	b := r.Counter("x_total", "other help ignored")
	if a != b {
		t.Fatal("second registration returned a different counter")
	}
	for _, bad := range []string{"", "9starts_with_digit", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q: expected panic", bad)
				}
			}()
			r.Counter(bad, "h")
		}()
	}
	// Same name, different kind: programming error.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on kind collision")
			}
		}()
		r.Gauge("x_total", "h")
	}()
}

// TestPrometheusGolden pins the full exposition output of the standard
// replay/record metric set: metric names, ordering, HELP/TYPE lines and
// histogram rendering are a stable interface that scrape configs and
// dashboards depend on. Any change here is a deliberate format change.
func TestPrometheusGolden(t *testing.T) {
	o := New()
	o.Replay.Blocks.Add(10)
	o.Replay.Desyncs.Add(2)
	o.Replay.ProbeDepth.Observe(2)
	o.Replay.ProbeDepth.Observe(5)
	o.Replay.VisitEdges.Observe(3)
	o.Record.Syncs.Add(1)
	o.Record.SetBlocks.Set(7)

	var buf bytes.Buffer
	if err := o.Reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = `# HELP tea_flight_trips_total Flight-recorder trips (breaker opens, recovered panics, desync-threshold and failed sessions).
# TYPE tea_flight_trips_total counter
tea_flight_trips_total 0
# HELP tea_record_entries_total trace entry points registered
# TYPE tea_record_entries_total counter
tea_record_entries_total 0
# HELP tea_record_syncs_total traces synchronized into the automaton
# TYPE tea_record_syncs_total counter
tea_record_syncs_total 1
# HELP tea_replay_blocks_total stream edges consumed (block boundaries crossed)
# TYPE tea_replay_blocks_total counter
tea_replay_blocks_total 10
# HELP tea_replay_desyncs_total automaton/stream desynchronizations
# TYPE tea_replay_desyncs_total counter
tea_replay_desyncs_total 2
# HELP tea_replay_global_hits_total global entry-container hits
# TYPE tea_replay_global_hits_total counter
tea_replay_global_hits_total 0
# HELP tea_replay_global_lookups_total global entry-container lookups
# TYPE tea_replay_global_lookups_total counter
tea_replay_global_lookups_total 0
# HELP tea_replay_in_trace_hits_total successor found among the current state's recorded successors
# TYPE tea_replay_in_trace_hits_total counter
tea_replay_in_trace_hits_total 0
# HELP tea_replay_instrs_total guest instructions replayed
# TYPE tea_replay_instrs_total counter
tea_replay_instrs_total 0
# HELP tea_replay_local_hits_total per-state local cache hits
# TYPE tea_replay_local_hits_total counter
tea_replay_local_hits_total 0
# HELP tea_replay_local_misses_total per-state local cache misses
# TYPE tea_replay_local_misses_total counter
tea_replay_local_misses_total 0
# HELP tea_replay_resyncs_total recoveries from desynchronization
# TYPE tea_replay_resyncs_total counter
tea_replay_resyncs_total 0
# HELP tea_replay_trace_blocks_total blocks executed inside trace states
# TYPE tea_replay_trace_blocks_total counter
tea_replay_trace_blocks_total 0
# HELP tea_replay_trace_enters_total NTE-to-trace transitions
# TYPE tea_replay_trace_enters_total counter
tea_replay_trace_enters_total 0
# HELP tea_replay_trace_exits_total trace-to-NTE exits
# TYPE tea_replay_trace_exits_total counter
tea_replay_trace_exits_total 0
# HELP tea_replay_trace_instrs_total instructions executed inside trace states
# TYPE tea_replay_trace_instrs_total counter
tea_replay_trace_instrs_total 0
# HELP tea_replay_trace_links_total trace-to-trace links through the global container
# TYPE tea_replay_trace_links_total counter
tea_replay_trace_links_total 0
# HELP tea_record_ext_counts live side-exit counters in the strategy
# TYPE tea_record_ext_counts gauge
tea_record_ext_counts 0
# HELP tea_record_hot_heads live hot-head counters in the strategy
# TYPE tea_record_hot_heads gauge
tea_record_hot_heads 0
# HELP tea_record_set_blocks TBBs resident in the trace set
# TYPE tea_record_set_blocks gauge
tea_record_set_blocks 7
# HELP tea_record_sync_gap_edges edges between consecutive trace synchronizations
# TYPE tea_record_sync_gap_edges histogram
tea_record_sync_gap_edges_bucket{le="16"} 0
tea_record_sync_gap_edges_bucket{le="64"} 0
tea_record_sync_gap_edges_bucket{le="256"} 0
tea_record_sync_gap_edges_bucket{le="1024"} 0
tea_record_sync_gap_edges_bucket{le="4096"} 0
tea_record_sync_gap_edges_bucket{le="16384"} 0
tea_record_sync_gap_edges_bucket{le="65536"} 0
tea_record_sync_gap_edges_bucket{le="+Inf"} 0
tea_record_sync_gap_edges_sum 0
tea_record_sync_gap_edges_count 0
# HELP tea_replay_probe_depth global-container slots or nodes inspected per trace-side search
# TYPE tea_replay_probe_depth histogram
tea_replay_probe_depth_bucket{le="1"} 0
tea_replay_probe_depth_bucket{le="2"} 1
tea_replay_probe_depth_bucket{le="3"} 1
tea_replay_probe_depth_bucket{le="4"} 1
tea_replay_probe_depth_bucket{le="6"} 2
tea_replay_probe_depth_bucket{le="8"} 2
tea_replay_probe_depth_bucket{le="12"} 2
tea_replay_probe_depth_bucket{le="16"} 2
tea_replay_probe_depth_bucket{le="24"} 2
tea_replay_probe_depth_bucket{le="32"} 2
tea_replay_probe_depth_bucket{le="+Inf"} 2
tea_replay_probe_depth_sum 7
tea_replay_probe_depth_count 2
# HELP tea_replay_resync_gap_edges edges spent desynchronized per desync episode
# TYPE tea_replay_resync_gap_edges histogram
tea_replay_resync_gap_edges_bucket{le="1"} 0
tea_replay_resync_gap_edges_bucket{le="2"} 0
tea_replay_resync_gap_edges_bucket{le="4"} 0
tea_replay_resync_gap_edges_bucket{le="8"} 0
tea_replay_resync_gap_edges_bucket{le="16"} 0
tea_replay_resync_gap_edges_bucket{le="32"} 0
tea_replay_resync_gap_edges_bucket{le="64"} 0
tea_replay_resync_gap_edges_bucket{le="128"} 0
tea_replay_resync_gap_edges_bucket{le="256"} 0
tea_replay_resync_gap_edges_bucket{le="512"} 0
tea_replay_resync_gap_edges_bucket{le="+Inf"} 0
tea_replay_resync_gap_edges_sum 0
tea_replay_resync_gap_edges_count 0
# HELP tea_replay_trace_visit_edges edges spent inside traces per visit
# TYPE tea_replay_trace_visit_edges histogram
tea_replay_trace_visit_edges_bucket{le="1"} 0
tea_replay_trace_visit_edges_bucket{le="2"} 0
tea_replay_trace_visit_edges_bucket{le="4"} 1
tea_replay_trace_visit_edges_bucket{le="8"} 1
tea_replay_trace_visit_edges_bucket{le="16"} 1
tea_replay_trace_visit_edges_bucket{le="32"} 1
tea_replay_trace_visit_edges_bucket{le="64"} 1
tea_replay_trace_visit_edges_bucket{le="128"} 1
tea_replay_trace_visit_edges_bucket{le="256"} 1
tea_replay_trace_visit_edges_bucket{le="512"} 1
tea_replay_trace_visit_edges_bucket{le="+Inf"} 1
tea_replay_trace_visit_edges_sum 3
tea_replay_trace_visit_edges_count 1
`
	if got := buf.String(); got != golden {
		t.Fatalf("Prometheus exposition drifted from golden.\ngot:\n%s\nwant:\n%s\nfirst diff near: %s",
			got, golden, firstDiff(got, golden))
	}
}

// TestWriteJSONGolden pins the JSON export's bytes for the standard
// replay/record metric set plus one labeled counter family and one labeled
// gauge family, each filled one series past the cap so its _overflow series
// renders last. The family names sort into the middle of their kinds, so
// the golden also pins where labeled families interleave with plain ones.
func TestWriteJSONGolden(t *testing.T) {
	o := New()
	o.Replay.Blocks.Add(10)
	o.Replay.Desyncs.Add(2)
	o.Replay.ProbeDepth.Observe(2)
	o.Replay.ProbeDepth.Observe(5)
	o.Replay.VisitEdges.Observe(3)
	o.Record.Syncs.Add(1)
	o.Record.SetBlocks.Set(7)
	tenants := o.Reg.CounterVec("tea_replay_tenant_edges_total", "edges replayed per tenant", "tenant")
	images := o.Reg.GaugeVec("tea_record_image_gen", "generation per image", "image")
	for i := 0; i <= DefaultMaxSeries; i++ {
		tenants.With(fmt.Sprintf("t%02d", i)).Add(uint64(i))
		images.With(fmt.Sprintf("i%02d", i)).Set(uint64(2 * i))
	}

	var buf bytes.Buffer
	if err := o.Reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/registry.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(golden) {
		t.Fatalf("JSON export drifted from testdata/registry.golden.json; first diff near: %s",
			firstDiff(got, string(golden)))
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + " | want | " + bl[i]
		}
	}
	return "length mismatch"
}

func TestWriteJSONDeterministic(t *testing.T) {
	o := New()
	o.Replay.Blocks.Add(3)
	o.Replay.ProbeDepth.Observe(2)
	var a, b bytes.Buffer
	if err := o.Reg.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := o.Reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteJSON is not deterministic")
	}
	var metrics []map[string]any
	if err := json.Unmarshal(a.Bytes(), &metrics); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v", err)
	}
	if len(metrics) == 0 {
		t.Fatal("WriteJSON produced no metrics")
	}
	found := false
	for _, m := range metrics {
		if m["name"] == "tea_replay_blocks_total" {
			found = true
			if m["value"].(float64) != 3 {
				t.Fatalf("blocks value = %v", m["value"])
			}
		}
	}
	if !found {
		t.Fatal("tea_replay_blocks_total missing from JSON export")
	}
}
