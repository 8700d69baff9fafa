// Command teavet is the repository's typed static-analysis suite — five
// analyzers over the fully typechecked module (internal/analysis/driver),
// each guarding a load-bearing invariant at the source level:
//
//	hotalloc  — no allocation-inducing constructs in //tea:hotpath
//	            functions or their intra-module callee closure (the static
//	            complement to the 0 allocs/edge bench gates);
//	atomicmix — no plain load/store of a field that is accessed through
//	            sync/atomic elsewhere (the mixed-access race class -race
//	            only catches when the schedule cooperates);
//	wirelock  — the serve Code taxonomy and obs EventKind tags diffed
//	            against cmd/teavet/wirelock.json: renumbering or removing
//	            a wire value is a hard failure, appending updates the
//	            golden via -update;
//	failsem   — the panic-site / exported-no-error ratchet, on typed
//	            analysis;
//	unused    — no exported function, method, type, value or Config field
//	            that nothing outside its own package's tests refers to
//	            (e2ebench's non-test files count as callers; for the root
//	            package only a runnable Example counts as a test caller).
//
// hotalloc, atomicmix and failsem findings are ratcheted against
// cmd/teavet/baseline.txt ("key count" lines): only findings beyond the
// baseline fail, so deliberate slow-path allocations stay recorded (with
// justification comments) instead of demanding a flag-day cleanup.
// wirelock and unused findings are hard failures a baseline cannot absorb.
//
// Usage (from the repository root, as scripts/ci.sh does):
//
//	go run ./cmd/teavet            # vet against baseline + golden
//	go run ./cmd/teavet -update    # rewrite baseline, lock appended wire values
//
// Exit codes: 0 clean, 1 findings, 2 internal error — mirrored by the CI
// negative self-test, which runs the suite over cmd/teavet/testdata/selftest
// (a fixture module every analyzer must flag) and requires exit 1.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/lsc-tea/tea/internal/analysis/atomicmix"
	"github.com/lsc-tea/tea/internal/analysis/driver"
	"github.com/lsc-tea/tea/internal/analysis/failsem"
	"github.com/lsc-tea/tea/internal/analysis/hotalloc"
	"github.com/lsc-tea/tea/internal/analysis/unused"
	"github.com/lsc-tea/tea/internal/analysis/wirelock"
)

func main() {
	root := flag.String("root", ".", "module root to analyze")
	baselinePath := flag.String("baseline", "cmd/teavet/baseline.txt", "ratchet baseline (relative to -root)")
	wirelockPath := flag.String("wirelock", "cmd/teavet/wirelock.json", "wire-stability golden (relative to -root)")
	update := flag.Bool("update", false, "rewrite the baseline and lock appended wire values")
	flag.Parse()
	os.Exit(run(*root, *baselinePath, *wirelockPath, *update, os.Stdout))
}

// maxExamples bounds the per-key positions printed for beyond-baseline
// findings.
const maxExamples = 3

// run executes the suite; factored out of main so tests drive the exact CLI
// semantics, exit code included.
func run(root, baselineRel, wirelockRel string, update bool, out io.Writer) int {
	baselineAbs := filepath.Join(root, baselineRel)
	wirelockAbs := filepath.Join(root, wirelockRel)

	prog, err := driver.Load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "teavet:", err)
		return 2
	}

	if update {
		changed, err := wirelock.Update(wirelockAbs, prog, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "teavet:", err)
			return 2
		}
		state := "unchanged"
		if changed {
			state = "updated"
		}
		fmt.Fprintf(out, "teavet: wirelock golden %s (%s)\n", state, wirelockRel)
	}

	analyzers := []*driver.Analyzer{
		hotalloc.Analyzer,
		atomicmix.Analyzer,
		wirelock.New(wirelockAbs, nil),
		failsem.Analyzer,
		unused.New(filepath.Join(root, "e2ebench")),
	}

	counts := make(map[string]int)        // ratchet key -> occurrences
	examples := make(map[string][]string) // ratchet key -> example positions
	var hard []driver.Diagnostic
	for _, a := range analyzers {
		diags, err := driver.Run(prog, a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "teavet:", err)
			return 2
		}
		for _, d := range diags {
			if d.Key == "" {
				hard = append(hard, d)
				continue
			}
			counts[d.Key]++
			if len(examples[d.Key]) < maxExamples {
				examples[d.Key] = append(examples[d.Key], relPos(root, d)+": "+d.Message)
			}
		}
	}

	if update {
		// A malformed baseline is rewritten whole: every key then reads as
		// added.
		old, _ := readBaseline(baselineAbs)
		changed, err := writeBaseline(baselineAbs, counts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "teavet:", err)
			return 2
		}
		if !changed {
			fmt.Fprintf(out, "teavet: baseline unchanged (%d keys)\n", len(counts))
		} else {
			fmt.Fprintf(out, "teavet: baseline updated (%d keys)\n", len(counts))
			reportBaselineDiff(out, old, counts)
		}
		if len(hard) > 0 {
			reportHard(out, root, hard)
			return 1
		}
		return 0
	}

	bad := 0
	if len(hard) > 0 {
		reportHard(out, root, hard)
		bad += len(hard)
	}

	baseline, err := readBaseline(baselineAbs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "teavet:", err)
		return 2
	}
	for _, key := range sortedKeys(counts) {
		if counts[key] > baseline[key] {
			fmt.Fprintf(out, "teavet: %s: %d occurrence(s), baseline allows %d\n", key, counts[key], baseline[key])
			for _, pos := range examples[key] {
				fmt.Fprintf(out, "teavet:   at %s\n", pos)
			}
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "teavet: %d finding(s); fix them or, for ratcheted keys on an intentional change, run `go run ./cmd/teavet -update`\n", bad)
		return 1
	}
	for _, key := range sortedKeys(baseline) {
		if counts[key] < baseline[key] {
			fmt.Fprintf(out, "teavet: note: %s below baseline (%d < %d); consider -update\n", key, counts[key], baseline[key])
		}
	}
	fmt.Fprintf(out, "teavet: ok (%d keyed sites within baseline, %d analyzers)\n", len(counts), len(analyzers))
	return 0
}

// reportBaselineDiff prints what an -update changed in the baseline: each
// key added (+), dropped (-) or recounted (~), in key order.
func reportBaselineDiff(out io.Writer, old, counts map[string]int) {
	union := make(map[string]int, len(old)+len(counts))
	for k := range old {
		union[k] = 0
	}
	for k := range counts {
		union[k] = 0
	}
	for _, k := range sortedKeys(union) {
		was, now := old[k], counts[k]
		switch {
		case was == 0 && now > 0:
			fmt.Fprintf(out, "teavet:   + %s %d\n", k, now)
		case now == 0 && was > 0:
			fmt.Fprintf(out, "teavet:   - %s %d\n", k, was)
		case was != now:
			fmt.Fprintf(out, "teavet:   ~ %s %d -> %d\n", k, was, now)
		}
	}
}

// reportHard prints the un-ratchetable findings.
func reportHard(out io.Writer, root string, hard []driver.Diagnostic) {
	for _, d := range hard {
		pos := "-"
		if d.Pos.IsValid() {
			pos = relPos(root, d)
		}
		fmt.Fprintf(out, "teavet: %s: %s: %s\n", pos, d.Analyzer, d.Message)
	}
}

// relPos renders a diagnostic position relative to the module root.
func relPos(root string, d driver.Diagnostic) string {
	p := d.Pos
	if abs, err := filepath.Abs(root); err == nil {
		if rel, err := filepath.Rel(abs, p.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			return fmt.Sprintf("%s:%d:%d", filepath.ToSlash(rel), p.Line, p.Column)
		}
	}
	return p.String()
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readBaseline parses "key count" lines, with optional trailing
// " # justification" comments; a missing file is an empty baseline (every
// finding is then beyond it).
func readBaseline(path string) (map[string]int, error) {
	out := make(map[string]int)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, " #"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("%s: malformed baseline line %q", path, line)
		}
		n, err := strconv.Atoi(line[i+1:])
		if err != nil {
			return nil, fmt.Errorf("%s: malformed baseline line %q", path, line)
		}
		out[line[:i]] = n
	}
	return out, sc.Err()
}

// writeBaseline regenerates the baseline from counts, keeping each key's
// justification comment, and reports whether the file changed; a baseline
// that already reads byte for byte as regenerated is left untouched.
func writeBaseline(path string, counts map[string]int) (bool, error) {
	comments := readBaselineComments(path)
	var b strings.Builder
	b.WriteString("# teavet ratchet baseline: accepted findings per key, \"key count\" lines.\n")
	b.WriteString("# The suite fails only on findings beyond these counts; wirelock findings\n")
	b.WriteString("# are hard failures and never appear here. Regenerate (after reviewing\n")
	b.WriteString("# every change): go run ./cmd/teavet -update\n")
	for _, key := range sortedKeys(counts) {
		if c := comments[key]; c != "" {
			fmt.Fprintf(&b, "%s %d  # %s\n", key, counts[key], c)
		} else {
			fmt.Fprintf(&b, "%s %d\n", key, counts[key])
		}
	}
	if old, err := os.ReadFile(path); err == nil && string(old) == b.String() {
		return false, nil
	}
	return true, os.WriteFile(path, []byte(b.String()), 0o644)
}

// readBaselineComments collects the per-key " # justification" comments from
// an existing baseline so -update preserves them across regeneration.
func readBaselineComments(path string) map[string]string {
	out := make(map[string]string)
	f, err := os.Open(path)
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.Index(line, " #")
		if i < 0 {
			continue
		}
		key := strings.TrimSpace(line[:i])
		if j := strings.LastIndexByte(key, ' '); j >= 0 {
			key = key[:j]
		}
		out[key] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line[i:]), "#"))
	}
	return out
}
