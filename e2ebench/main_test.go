package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// shortRun runs the traced benchmark on small programs and returns the
// schedule digest it printed and its per-layer metrics.
func shortRun(t *testing.T, seed int64) (string, map[string]float64) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"-workload", "serve-sessions", "-seed", strconv.FormatInt(seed, 10),
		"-seconds", "0.4", "-trace", "1"}
	if code := run(context.Background(), args, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the JSON summary: %v", err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
		t.Fatalf("seed %d: %d of %d operations failed\n%s", seed, sum.Failed, sum.Attempted, out.String())
	}
	var digest string
	for _, ln := range lines {
		if d, ok := strings.CutPrefix(ln, "schedule "); ok {
			digest = d
		}
	}
	m := make(map[string]float64, len(sum.Metrics))
	for name, v := range sum.Metrics {
		m[name] = v.Value
	}
	return digest, m
}

// TestSeedFixesScheduleAndCounts checks that one seed draws one
// session/publish schedule and gives identical exact counts, that another
// seed draws another schedule, and that the traced run reports exactly the
// per-layer metrics BENCHMARK.json lists.
func TestSeedFixesScheduleAndCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced benchmark three times")
	}
	programTarget = 300_000
	spanDir = t.TempDir()
	d1, m1 := shortRun(t, 7)
	d2, m2 := shortRun(t, 7)
	if d1 == "" || d1 != d2 {
		t.Errorf("seed 7 drew schedules %q and %q", d1, d2)
	}
	for _, name := range []string{"serve.wire_bytes_per_edge", "serve.batches_per_session",
		"pipeline.chunks", "record.states", "core.stride_fusable_ratio"} {
		v1, ok := m1[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if v1 != m2[name] {
			t.Errorf("%s: %v then %v with one seed", name, v1, m2[name])
		}
	}
	if d3, _ := shortRun(t, 8); d3 == d1 {
		t.Errorf("seeds 7 and 8 drew the same schedule %q", d1)
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, l := range spec.PerLayer {
		want = append(want, l.Name)
	}
	for name := range m1 {
		got = append(got, name)
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(want, " ") != strings.Join(got, " ") {
		t.Errorf("traced run reports %v\nBENCHMARK.json lists %v", got, want)
	}
}
