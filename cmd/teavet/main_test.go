package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoClean runs the full suite over the repository exactly as CI does
// and requires a clean exit: the checked-in baseline and wirelock golden
// must match the tree this test ships with.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module analysis load")
	}
	if code := run("../..", "cmd/teavet/baseline.txt", "cmd/teavet/wirelock.json", false, io.Discard); code != 0 {
		t.Fatalf("teavet over the repository exited %d, want 0 (run `go run ./cmd/teavet` for details)", code)
	}
}

// TestSelftest is the in-process half of the CI negative self-test: the
// fixture module must make every analyzer produce findings and the suite
// exit 1. If a rewrite of an analyzer silently stops flagging, this fails
// before CI does.
func TestSelftest(t *testing.T) {
	var buf bytes.Buffer
	code := run("testdata/selftest", "baseline.txt", "wirelock.json", false, &buf)
	if code != 1 {
		t.Fatalf("teavet over the selftest fixture exited %d, want 1\n%s", code, buf.String())
	}
	out := buf.String()
	for _, marker := range []string{
		"hotalloc core.Kernel make",
		"atomicmix core.Mixed.n plain",
		"failsem panic core.Reset",
		"wirelock: wire constant Code.CodeProto renumbered",
		"unused: core.Uncalled is exported",
		"unused: core.RunConfig.Idle is exported",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("selftest output lost the %q finding:\n%s", marker, out)
		}
	}
}

// TestBaselineRoundTrip pins the baseline grammar: counts parse, inline
// `# justification` comments are ignored by the reader but preserved by
// the writer across -update regeneration.
func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.txt")
	orig := "# header\n" +
		"failsem panic core.X 2  # guards an API-misuse invariant\n" +
		"hotalloc core.Y make 1\n"
	if err := os.WriteFile(path, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got["failsem panic core.X"] != 2 || got["hotalloc core.Y make"] != 1 {
		t.Fatalf("readBaseline = %v", got)
	}
	// Regenerate with a changed count: the justification must survive.
	if _, err := writeBaseline(path, map[string]int{
		"failsem panic core.X":  1,
		"hotalloc core.Y make":  1,
		"atomicmix core.Z copy": 3,
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	if !strings.Contains(text, "failsem panic core.X 1  # guards an API-misuse invariant") {
		t.Errorf("justification comment lost across rewrite:\n%s", text)
	}
	reread, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if reread["failsem panic core.X"] != 1 || reread["atomicmix core.Z copy"] != 3 {
		t.Errorf("rewritten baseline rereads as %v", reread)
	}
}

// TestBaselineMalformed rejects lines without a trailing count.
func TestBaselineMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.txt")
	if err := os.WriteFile(path, []byte("justonetoken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(path); err == nil {
		t.Fatal("malformed baseline accepted")
	}
}

// TestUpdateReportsChanges drives -update over a small fixture module: the
// first run writes both files and lists the keys it added, a second run
// over the same tree reports both unchanged and leaves the baseline's bytes
// alone, and a run over an edited baseline lists the keys it added, dropped
// and recounted.
func TestUpdateReportsChanges(t *testing.T) {
	if testing.Short() {
		t.Skip("module analysis load")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":         "module fixture\n\ngo 1.22\n",
		"serve/codes.go": "package serve\n\ntype Code uint32\n\nconst CodeOK Code = 0\n",
		"obs/kinds.go":   "package obs\n\ntype EventKind uint8\n\nconst EvEnter EventKind = 1\n",
		// cmd/use refers to every export, so unused reports nothing.
		"cmd/use/main.go": "package main\n\nimport (\n\t\"fixture/internal/core\"\n\t\"fixture/obs\"\n\t\"fixture/serve\"\n)\n\n" +
			"func main() { core.Kernel(1); _, _ = obs.EvEnter, serve.CodeOK }\n",
		"internal/core/kernel.go": `package core

var sink []int

// Kernel allocates on its hot path.
//
//tea:hotpath
func Kernel(n int) {
	sink = append(sink, make([]int, n)...)
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	update := func() string {
		t.Helper()
		var buf bytes.Buffer
		if code := run(dir, "baseline.txt", "wirelock.json", true, &buf); code != 0 {
			t.Fatalf("teavet -update exited %d\n%s", code, buf.String())
		}
		return buf.String()
	}
	contains := func(out string, want ...string) {
		t.Helper()
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("-update output lacks %q:\n%s", w, out)
			}
		}
	}

	contains(update(), "wirelock golden updated", "baseline updated", "+ hotalloc core.Kernel make 1")
	baseline := filepath.Join(dir, "baseline.txt")
	first, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}

	out := update()
	contains(out, "wirelock golden unchanged", "baseline unchanged")
	if strings.Contains(out, "+ ") || strings.Contains(out, "- ") {
		t.Errorf("an unchanged -update listed keys:\n%s", out)
	}
	if again, err := os.ReadFile(baseline); err != nil || !bytes.Equal(again, first) {
		t.Fatalf("an unchanged -update rewrote the baseline (err %v)", err)
	}

	// Drop a real key, add a stale one and recount another.
	edited := strings.Replace(string(first), "hotalloc core.Kernel make 1", "hotalloc core.Gone make 2", 1)
	edited = strings.Replace(edited, "hotalloc core.Kernel append 1", "hotalloc core.Kernel append 3", 1)
	if edited == string(first) {
		t.Fatalf("fixture baseline lacks the expected keys:\n%s", first)
	}
	if err := os.WriteFile(baseline, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	contains(update(), "baseline updated", "+ hotalloc core.Kernel make 1", "- hotalloc core.Gone make 2",
		"~ hotalloc core.Kernel append 3 -> 1")
}
