package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// line renders one `go test -bench` line reporting v as ns/edge beside an
// unrelated ns/op, under the -2 GOMAXPROCS suffix.
func line(name string, v float64) string {
	return fmt.Sprintf("%s-2   \t    1000\t   %.0f ns/op\t  %.2f ns/edge\n", name, v*1e4, v)
}

// write stores one run's output, framed as `go test` frames it, at path.
func write(t *testing.T, path, content string) string {
	t.Helper()
	if err := os.WriteFile(path, []byte("goos: linux\ngoarch: amd64\n"+content+"PASS\nok  \tpkg\t1.0s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// rowVals holds each row's value per run.
type rowVals map[string][]float64

// side writes a directory of runs: run i holds one line per row, valued
// vals[row][i].
func side(t *testing.T, vals rowVals) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < 10; i++ {
		var b strings.Builder
		for name, xs := range vals {
			b.WriteString(line(name, xs[i]))
		}
		write(t, filepath.Join(dir, fmt.Sprintf("run%02d", i)), b.String())
	}
	return dir
}

// pair runs paired mode on two sides and returns its report and error.
func pair(t *testing.T, parent, head rowVals) (string, error) {
	t.Helper()
	var out strings.Builder
	err := paired(side(t, parent), side(t, head), &out)
	return out.String(), err
}

var (
	steady = []float64{10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.3, 9.7, 10.1, 9.9}
	slower = []float64{14.0, 14.2, 13.8, 14.1, 13.9, 14.0, 14.3, 13.7, 14.1, 13.9}
)

func TestParseGoBenchLines(t *testing.T) {
	in := "pkg: github.com/lsc-tea/tea\n" +
		"BenchmarkCompiledReplay/901.steady/compiled-stride-2 \t 1932\t 612345 ns/op\t 0.3500 cycle-hit-rate\t 3.55 ns/edge\t 0 B/op\t 0 allocs/op\n" +
		"BenchmarkEncode\t 52\t 22222 ns/op\t 3.25 bytes/TBB\n" +
		"--- BENCH: BenchmarkSomething\n    bench_test.go:10: a log line\n"
	got, err := parse(strings.NewReader(in))
	if err != nil || len(got) != 2 {
		t.Fatalf("parsed %+v, %v; want 2 rows", got, err)
	}
	want := map[string]float64{"ns/op": 612345, "cycle-hit-rate": 0.35, "ns/edge": 3.55, "B/op": 0, "allocs/op": 0}
	if got[0].name != "BenchmarkCompiledReplay/901.steady/compiled-stride" || fmt.Sprint(got[0].metrics) != fmt.Sprint(want) {
		t.Fatalf("row %+v, want name without -2, metrics %v", got[0], want)
	}
	// A run's row value is the median of its lines; ns/edge wins over
	// ns/op, and a row without it falls back to ns/op.
	in += line("BenchmarkX", 5) + line("BenchmarkX", 9) + line("BenchmarkX", 6)
	r, err := run(write(t, filepath.Join(t.TempDir(), "run"), in))
	if err != nil || r["BenchmarkCompiledReplay/901.steady/compiled-stride"] != 3.55 || r["BenchmarkEncode"] != 22222 || r["BenchmarkX"] != 6 {
		t.Fatalf("row values %v, %v", r, err)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	out, err := pair(t, rowVals{"BenchmarkX/a": steady}, rowVals{"BenchmarkX/a": slower})
	if err == nil || !strings.Contains(out, "FAIL") || !strings.Contains(err.Error(), "BenchmarkX/a") {
		t.Fatalf("separated IQRs at +40%% passed: %v\n%s", err, out)
	}
}

func TestGatePassesOnOverlapOrWithinBound(t *testing.T) {
	// Overlapping IQRs pass even when HEAD's median is far worse: a wide
	// HEAD spread is noise, not a resolved regression.
	wide := []float64{9.5, 10, 30, 31, 32, 9.8, 29, 30, 33, 10.1}
	if out, err := pair(t, rowVals{"BenchmarkX/a": steady}, rowVals{"BenchmarkX/a": wide}); err != nil {
		t.Fatalf("overlapping IQRs failed: %v\n%s", err, out)
	}
	// Separated IQRs but only +10%: within the bound.
	var near []float64
	for _, v := range steady {
		near = append(near, v*1.1)
	}
	if out, err := pair(t, rowVals{"BenchmarkX/a": steady}, rowVals{"BenchmarkX/a": near}); err != nil || !strings.Contains(out, " ok") {
		t.Fatalf("+10%% failed: %v\n%s", err, out)
	}
}

func TestGateUnresolvedOnWideParent(t *testing.T) {
	noisy := []float64{6, 14, 7, 13, 8, 12, 6, 14, 10, 10}
	out, err := pair(t, rowVals{"BenchmarkX/a": noisy}, rowVals{"BenchmarkX/a": slower})
	if err != nil || !strings.Contains(out, "unresolved") {
		t.Fatalf("a parent IQR wider than the bound must read unresolved and pass: %v\n%s", err, out)
	}
}

func TestGateListsOneSidedRows(t *testing.T) {
	parent := side(t, rowVals{"BenchmarkX/a": steady, "BenchmarkX/gone": steady})
	// A run with no rows, as from a package whose benchmarks the parent
	// does not have yet, is skipped.
	write(t, filepath.Join(parent, "empty"), "")
	var b strings.Builder
	err := paired(parent, side(t, rowVals{"BenchmarkX/a": steady, "BenchmarkX/new": slower}), &b)
	out := b.String()
	if err != nil || !strings.Contains(out, "BenchmarkX/gone") || !strings.Contains(out, "parent only") ||
		!strings.Contains(out, "BenchmarkX/new") || !strings.Contains(out, "head only") {
		t.Fatalf("one-sided rows must be listed, not failed: %v\n%s", err, out)
	}
}

func TestGateFailsWhenNothingShared(t *testing.T) {
	_, err := pair(t, rowVals{"BenchmarkX/a": steady}, rowVals{"BenchmarkX/b": steady})
	if err == nil || !strings.Contains(err.Error(), "compared nothing") {
		t.Fatalf("gate passed with zero shared rows: %v", err)
	}
}

// keyedRegression: of two rows that differ in one path element, only the
// regressing one may be named.
func keyedRegression(t *testing.T, healthy, regressing string) {
	t.Helper()
	out, err := pair(t, rowVals{healthy: steady, regressing: steady}, rowVals{healthy: steady, regressing: slower})
	if err == nil || !strings.Contains(err.Error(), regressing) || strings.Contains(err.Error(), healthy) {
		t.Fatalf("want only %s named: %v\n%s", regressing, err, out)
	}
}

func TestGateKeysOnObsMode(t *testing.T) {
	keyedRegression(t, "BenchmarkReplayPipeline/obs=off/workers=2", "BenchmarkReplayPipeline/obs=on/workers=2")
}

func TestGateKeysOnWorkers(t *testing.T) {
	keyedRegression(t, "BenchmarkReplayPipeline/obs=off/workers=1", "BenchmarkReplayPipeline/obs=off/workers=4")
}

// checkWithin runs the within-run speedup check on one run's output.
func checkWithin(t *testing.T, content, faster string) error {
	t.Helper()
	return within(write(t, filepath.Join(t.TempDir(), "run"), content), faster, io.Discard)
}

const strideRun = "BenchmarkCompiledReplay/901.steady/compiled-batch-2 100 1 ns/op 3.2 ns/edge\n" +
	"BenchmarkCompiledReplay/901.steady/compiled-stride-2 100 1 ns/op 0.4 ns/edge\n" +
	"BenchmarkCompiledReplay/902.stream/compiled-batch-2 100 1 ns/op 4.1 ns/edge\n" +
	"BenchmarkCompiledReplay/902.stream/compiled-stride-2 100 1 ns/op 1.5 ns/edge\n" +
	"BenchmarkCompiledReplay/181.mcf/compiled-batch-2 100 1 ns/op 6.4 ns/edge\n"

const strideSpec = "compiled-stride:compiled-batch:1.5:901.steady,902.stream"

func TestFasterGatePasses(t *testing.T) {
	if err := checkWithin(t, strideRun, strideSpec); err != nil {
		t.Fatalf("speedup check failed on 8x/2.7x margins: %v", err)
	}
}

func TestFasterGateFailsBelowRatio(t *testing.T) {
	run := strings.Replace(strideRun, "0.4 ns/edge", "3.0 ns/edge", 1)
	err := checkWithin(t, run, strideSpec)
	if err == nil || !strings.Contains(err.Error(), "901.steady/compiled-stride") || !strings.Contains(err.Error(), "want 1.50") {
		t.Fatalf("speedup check accepted a 1.07x ratio: %v", err)
	}
}

func TestFasterGateFailsOnMissingRows(t *testing.T) {
	run := strings.Replace(strideRun, "901.steady/compiled-stride", "901.steady/other", 1)
	err := checkWithin(t, run, strideSpec)
	if err == nil || !strings.Contains(err.Error(), "no BenchmarkCompiledReplay/901.steady/compiled-stride row") {
		t.Fatalf("check passed without the fast config's row: %v", err)
	}
	err = checkWithin(t, strideRun, "compiled-stride:compiled-batch:1.5:183.equake")
	if err == nil || !strings.Contains(err.Error(), "compared nothing") {
		t.Fatalf("check passed on a benchmark with no rows: %v", err)
	}
}

func TestFasterGateRejectsBadSpec(t *testing.T) {
	for _, bad := range []string{"a:b:1.5", "a:b:zero:mcf", "a:b:-1:mcf", "a:b:1.5:"} {
		if err := checkWithin(t, strideRun, bad); err == nil {
			t.Fatalf("malformed -faster %q accepted", bad)
		}
	}
}

// TestScalingCheck: ci.sh's measured record-scaling step is a -faster check
// with the worker count as the config element. It must compare the obs=off
// rows only, pass at the quiet path's measured 1.8× and fail at the 1.0×
// the pipeline reads with every chunk sequential.
func TestScalingCheck(t *testing.T) {
	run := func(w1, w2 float64) string {
		return line("BenchmarkRecordPipeline/obs=off/workers=1", w1) +
			line("BenchmarkRecordPipeline/obs=off/workers=2", w2) +
			line("BenchmarkRecordPipeline/obs=on/workers=1", 100) +
			line("BenchmarkRecordPipeline/obs=on/workers=2", 100)
	}
	const spec = "workers=2:workers=1:1.3:obs=off"
	if err := checkWithin(t, run(22, 12.2), spec); err != nil {
		t.Fatalf("1.8x measured scaling failed: %v", err)
	}
	err := checkWithin(t, run(60, 60), spec)
	if err == nil || !strings.Contains(err.Error(), "obs=off/workers=2") || strings.Contains(err.Error(), "obs=on") {
		t.Fatalf("1.0x measured scaling passed, or obs=on rows were compared: %v", err)
	}
	if err := checkWithin(t, line("BenchmarkRecordPipeline/obs=off/workers=1", 44), spec); err == nil {
		t.Fatal("scaling check passed without its workers=2 row")
	}
}
