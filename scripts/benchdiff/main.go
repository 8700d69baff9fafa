// Command benchdiff reads `go test -bench` output and checks it. A run is
// the output of one benchmark process in one file. A row is a benchmark
// name without its -GOMAXPROCS suffix, and its value in a run is the median
// of its ns/edge over the run's lines (ns/op when the row reports no
// ns/edge), so -count repeats inside a run damp short host noise.
//
// Paired mode compares two directories of runs taken interleaved on the
// same host, one file per run, the parent's and HEAD's:
//
//	benchdiff parent/ head/
//
// It prints each row's median and interquartile range (IQR) over the runs
// on both sides.
// A row fails when HEAD's first quartile lies above the parent's third
// quartile and HEAD's median is more than 25% above the parent's. A row
// whose parent IQR is wider than 25% of its median is unresolved: the
// parent's own spread hides a regression of that size, so it is reported
// and does not fail. Rows present on one side only are listed, not failed;
// a pair of files sharing no row fails, since it compared nothing.
//
// The within-run speedup check reads one file:
//
//	benchdiff -faster compiled-stride:compiled-batch:1.5:901.steady,902.stream run.txt
//
// On every row naming one of the benchmarks as a path element, the slow
// config's value must be at least ratio× the fast config's, where the fast
// row is the slow row's name with the config element swapped.
//
// The same check gates the record pipeline's measured scaling, with the
// worker count as the config element:
//
//	benchdiff -faster workers=2:workers=1:1.3:obs=off run.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// bound is the paired gate's regression bound: HEAD's median more than 25%
// above the parent's, and the widest parent IQR that can still resolve it.
const bound = 0.25

func main() {
	faster := flag.String("faster", "", "within-run speedup check fast:slow:ratio:bench1,bench2 on one file")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff parent/ head/ | benchdiff -faster spec run.txt")
		flag.PrintDefaults()
	}
	flag.Parse()

	var err error
	switch {
	case *faster != "" && flag.NArg() == 1:
		err = within(flag.Arg(0), *faster, os.Stdout)
	case *faster == "" && flag.NArg() == 2:
		err = paired(flag.Arg(0), flag.Arg(1), os.Stdout)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// result is one parsed benchmark line: the row name and every value/unit
// pair the line reports (ns/op, B/op, allocs/op and custom metrics such as
// ns/edge or cycle-hit-rate).
type result struct {
	name    string
	metrics map[string]float64
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// parse reads the benchmark lines of `go test -bench` output, skipping
// everything else (goos, PASS, ok, log output).
func parse(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			continue // not an iteration count
		}
		res := result{name: procSuffix.ReplaceAllString(f[0], ""), metrics: map[string]float64{}}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q for %s", f[0], f[i], f[i+1])
			}
			res.metrics[f[i+1]] = v
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// run loads one run: each row's median value over its lines.
func run(path string) (map[string]float64, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	results, err := parse(fh)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	lines := map[string][]float64{}
	for _, r := range results {
		v, ok := r.metrics["ns/edge"]
		if !ok {
			v, ok = r.metrics["ns/op"]
		}
		if ok {
			lines[r.name] = append(lines[r.name], v)
		}
	}
	rows := make(map[string]float64, len(lines))
	for n, xs := range lines {
		_, rows[n], _ = quartiles(xs)
	}
	return rows, nil
}

// runs loads every run in dir: each row's values, one per run that has it.
// A run may hold no rows: a benchmark the parent commit does not have yet.
func runs(dir string) (map[string][]float64, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rows := map[string][]float64{}
	for _, f := range files {
		r, err := run(filepath.Join(dir, f.Name()))
		if err != nil {
			return nil, err
		}
		for n, v := range r {
			rows[n] = append(rows[n], v)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no benchmark rows in any run", dir)
	}
	return rows, nil
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// verdict applies the paired rule to one row's parent and HEAD samples.
func verdict(parent, head []float64) string {
	p1, pm, p3 := quartiles(parent)
	h1, hm, _ := quartiles(head)
	switch {
	case p3-p1 > bound*pm:
		return "unresolved"
	case h1 > p3 && hm > pm*(1+bound):
		return "FAIL"
	}
	return "ok"
}

// paired compares every row of the two directories of runs and fails on
// any FAIL verdict.
func paired(parentDir, headDir string, w io.Writer) error {
	parent, err := runs(parentDir)
	if err != nil {
		return err
	}
	head, err := runs(headDir)
	if err != nil {
		return err
	}
	names := map[string]bool{}
	for n := range parent {
		names[n] = true
	}
	for n := range head {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var failed []string
	shared := 0
	for _, n := range sorted {
		p, h := parent[n], head[n]
		switch {
		case h == nil:
			fmt.Fprintf(w, "%-60s parent only\n", n)
			continue
		case p == nil:
			fmt.Fprintf(w, "%-60s head only\n", n)
			continue
		}
		shared++
		p1, pm, p3 := quartiles(p)
		h1, hm, h3 := quartiles(h)
		v := verdict(p, h)
		fmt.Fprintf(w, "%-60s parent %9.2f [%.2f, %.2f] head %9.2f [%.2f, %.2f] %+6.1f%% %s\n",
			n, pm, p1, p3, hm, h1, h3, (hm/pm-1)*100, v)
		if v == "FAIL" {
			failed = append(failed, n)
		}
	}
	if shared == 0 {
		return fmt.Errorf("no rows shared between %s and %s; the gate compared nothing", parentDir, headDir)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d row(s) regressed beyond the parent's IQR and +%.0f%%: %s",
			len(failed), bound*100, strings.Join(failed, ", "))
	}
	fmt.Fprintf(w, "benchdiff: %d shared rows, none regressed\n", shared)
	return nil
}

// within runs the within-run speedup check on one file.
func within(path, faster string, w io.Writer) error {
	rows, err := run(path)
	if err != nil {
		return err
	}
	failures, err := checkFaster(rows, faster)
	if err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d check(s) failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(w, "benchdiff: %s ok\n", path)
	return nil
}

// checkFaster holds, on every named benchmark, each slow-config row to a
// fast twin at least ratio× quicker.
func checkFaster(rows map[string]float64, spec string) ([]string, error) {
	parts := strings.SplitN(spec, ":", 4)
	if len(parts) != 4 {
		return nil, fmt.Errorf("-faster wants fast:slow:ratio:bench1,bench2, got %q", spec)
	}
	fast, slow := parts[0], parts[1]
	ratio, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || ratio <= 0 {
		return nil, fmt.Errorf("-faster ratio %q is not a positive number", parts[2])
	}
	if parts[3] == "" {
		return nil, fmt.Errorf("-faster names no benchmarks in %q", spec)
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)

	var failures []string
	for _, bench := range strings.Split(parts[3], ",") {
		matched := false
		for _, n := range names {
			elems := strings.Split(n, "/")
			at := slices.Index(elems, slow)
			if at < 0 || !slices.Contains(elems, bench) {
				continue
			}
			elems[at] = fast
			twin := strings.Join(elems, "/")
			fv, ok := rows[twin]
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: no %s row to compare against %s", n, twin, slow))
				continue
			}
			matched = true
			if got := rows[n] / fv; got < ratio {
				failures = append(failures, fmt.Sprintf("%s: %.2f is only %.2f× faster than %s %.2f (want %.2f×)",
					twin, fv, got, n, rows[n], ratio))
			}
		}
		if !matched {
			failures = append(failures, fmt.Sprintf("%s: no %s rows found; the speedup check compared nothing", bench, slow))
		}
	}
	return failures, nil
}
