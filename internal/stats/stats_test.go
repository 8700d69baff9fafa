package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{4}, 4},
		{[]float64{1, 4}, 2},
		{[]float64{2, 8}, 4},
		{[]float64{0, -1}, 0},   // non-positive ignored
		{[]float64{0, 2, 8}, 4}, // zero skipped
		{[]float64{1, 1, 1, 1}, 1},
	}
	for _, c := range cases {
		if got := GeoMean(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("GeoMean(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestGeoMeanBounds(t *testing.T) {
	// GeoMean lies between min and max of its positive inputs.
	f := func(xs []float64) bool {
		var pos []float64
		for _, x := range xs {
			if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) && x < 1e100 {
				pos = append(pos, x)
			}
		}
		g := GeoMean(pos)
		if len(pos) == 0 {
			return g == 0
		}
		lo, hi := pos[0], pos[0]
		for _, x := range pos {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return g >= lo-1e-9*lo && g <= hi+1e-9*hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("benchmark", "DBT", "TEA")
	tb.AddRow("168.wupwise", "329", "81")
	tb.AddSeparator()
	tb.AddRow("GeoMean", "", "77%")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Header first, rule second and fourth.
	if !strings.HasPrefix(lines[0], "benchmark") {
		t.Errorf("header line: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "---") || !strings.HasPrefix(lines[3], "---") {
		t.Error("rules missing")
	}
	// Numeric columns right-aligned: all lines same width per column.
	if !strings.Contains(lines[2], "329") {
		t.Error("data row missing")
	}
	// Short rows padded.
	tb2 := NewTable("a", "b", "c")
	tb2.AddRow("only")
	if !strings.Contains(tb2.String(), "only") {
		t.Error("short row lost")
	}
}

func TestFormatters(t *testing.T) {
	if KB(0) != "0" || KB(512) != "1" || KB(1024) != "1" || KB(10240) != "10" {
		t.Errorf("KB: %s %s %s %s", KB(0), KB(512), KB(1024), KB(10240))
	}
	if Pct(0.975) != "97.5%" {
		t.Errorf("Pct = %s", Pct(0.975))
	}
	if Ratio(13.531) != "13.53" {
		t.Errorf("Ratio = %s", Ratio(13.531))
	}
}
