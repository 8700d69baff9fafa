package obs

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// fill admits DefaultMaxSeries-n filler series ("\x00f00", "\x00f01", ...),
// so the family has exactly n free slots left under the cap, and returns
// their label values.
func fill(with func(string), n int) []string {
	var names []string
	for i := 0; i < DefaultMaxSeries-n; i++ {
		names = append(names, fmt.Sprintf("\x00f%02d", i))
		with(names[i])
	}
	return names
}

func TestCounterVecSeriesAndRelease(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("tea_test_total", "test", "tenant")
	fill(func(s string) { v.With(s) }, 2)
	v.With("a").Add(1)
	v.With("b").Add(2)
	if v.With("a") != v.With("a") {
		t.Fatal("With is not idempotent")
	}
	if v.Len() != DefaultMaxSeries {
		t.Fatalf("Len %d, want %d", v.Len(), DefaultMaxSeries)
	}
	// Past the cap, writes land on the shared overflow series.
	v.With("c").Add(7)
	v.With("d").Add(5)
	if v.Len() != DefaultMaxSeries {
		t.Fatalf("Len %d after overflow, want %d", v.Len(), DefaultMaxSeries)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tea_test_total{tenant="a"} 1`,
		`tea_test_total{tenant="b"} 2`,
		`tea_test_total{tenant="_overflow"} 12`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("scrape missing %q:\n%s", want, sb.String())
		}
	}
	// Releasing a series frees its slot for a fresh label value.
	if !v.Release("a") {
		t.Fatal("Release(a) = false")
	}
	if v.Release("a") {
		t.Fatal("double Release(a) = true")
	}
	v.With("e").Add(3)
	if v.Len() != DefaultMaxSeries {
		t.Fatalf("Len %d after release+readmit, want %d", v.Len(), DefaultMaxSeries)
	}
	if got := v.With("e").Value(); got != 3 {
		t.Fatalf("readmitted series value %d, want 3", got)
	}
}

func TestGaugeVecSeriesAndRelease(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("tea_test_gen", "test", "image")
	fill(func(s string) { v.With(s) }, 1)
	v.With("img").Set(4)
	v.With("spill").Set(9) // overflow
	if v.Len() != DefaultMaxSeries {
		t.Fatalf("Len %d, want %d", v.Len(), DefaultMaxSeries)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `tea_test_gen{image="img"} 4`) ||
		!strings.Contains(sb.String(), `tea_test_gen{image="_overflow"} 9`) {
		t.Fatalf("gauge vec scrape wrong:\n%s", sb.String())
	}
	if !v.Release("img") {
		t.Fatal("Release(img) = false")
	}
	if v.Len() != DefaultMaxSeries-1 {
		t.Fatalf("Len %d after release, want %d", v.Len(), DefaultMaxSeries-1)
	}
}

// TestQuickVecBoundedCardinality is the property test behind the
// multi-tenant metric contract: no matter what label values arrive in what
// order, the live series count never exceeds the cap, and releasing a
// value always frees capacity for a new one. Filler series leave 1..8 free
// slots, so short random name lists still run into the cap.
func TestQuickVecBoundedCardinality(t *testing.T) {
	f := func(names []string, freeBits uint8) bool {
		v := NewRegistry().CounterVec("tea_q_total", "q", "tenant")
		fillers := fill(func(s string) { v.With(s) }, 1+int(freeBits%8))
		for _, n := range names {
			v.With(n).Add(1)
			if v.Len() > DefaultMaxSeries {
				return false
			}
		}
		// Evict every admitted value; capacity must fully recover.
		for _, n := range append(fillers, names...) {
			v.Release(n)
		}
		if v.Len() != 0 {
			return false
		}
		for i := 0; i < DefaultMaxSeries; i++ {
			v.With(fmt.Sprintf("fresh-%d", i)).Add(1)
		}
		return v.Len() == DefaultMaxSeries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("tea_test_total", "test", "tenant")
	v.With(`a"b\c` + "\nd").Add(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `tea_test_total{tenant="a\"b\\c\nd"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaped series %q missing:\n%s", want, sb.String())
	}
}

func TestVecRegistrationValidated(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("tea_test_total", "test", "tenant")
	if v2 := r.CounterVec("tea_test_total", "test", "tenant"); v2 != v {
		t.Fatal("re-registration did not return the existing vec")
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("cross-kind name", func() { r.GaugeVec("tea_test_total", "x", "tenant") })
	mustPanic("plain-metric clash", func() { r.Counter("tea_test_total", "x") })
	mustPanic("bad label", func() { r.CounterVec("tea_other_total", "x", "bad label!") })
}

func TestCollectorRunsAtExport(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tea_test_total", "test")
	var backing uint64 = 41
	var last uint64
	r.AddCollector(func() {
		c.Add(backing - last)
		last = backing
	})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "tea_test_total 41") {
		t.Fatalf("collector did not fold before export:\n%s", sb.String())
	}
	// A second export must fold the delta, not re-add the total.
	backing = 43
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "tea_test_total 43") {
		t.Fatalf("delta fold wrong on second export:\n%s", sb.String())
	}
}
