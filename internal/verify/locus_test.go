package verify

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
)

var updateFindings = flag.Bool("update", false, "rewrite testdata/findings.golden")

// TestFindingTextPinned pins the rendered findings — rule, severity, locus
// and message — of known-bad inputs to a golden file. The state loci
// ("state N (name)") are rendered only on the branch that reports a
// finding, so this is the check that lazy rendering keeps every finding's
// text byte-identical. The cases cover the state-anchored rules of all
// three rendering sites: A-LABEL in the transition scan, A-CFG in the image
// scan (badcfg.bin, the ci.sh negative test), and C-EQ in the
// bisimulation. Regenerate the golden only from code whose finding text is
// known good: go test ./internal/verify -run TestFindingTextPinned -update
func TestFindingTextPinned(t *testing.T) {
	var out strings.Builder
	section := func(name string, r *Report) {
		if r.Clean() {
			t.Fatalf("%s: expected findings, report is clean", name)
		}
		fmt.Fprintf(&out, "== %s\n%s", name, r)
	}

	data, err := os.ReadFile("testdata/badcfg.bin")
	if err != nil {
		t.Fatal(err)
	}
	section("badcfg.bin", Image(data, cfg.NewCache(progs.Figure2(60, 200), cfg.StarDBT), core.ConfigGlobalLocal))

	// A-LABEL: a transition whose label is not its target's block head.
	set, _ := recordedSet(t, 1, "mret", 8)
	c := core.Compile(core.Build(set), core.ConfigGlobalLocal)
	forgeWrongLabel(set)
	wrong := core.Build(set)
	section("wrong label", Automaton(wrong, nil))

	// C-EQ: the bisimulation handed the forged automaton, which has the
	// compiled form's states plus one transition the compiled form lacks.
	r := &Report{}
	compiledBisim(r, c, wrong, c.Audit())
	section("forged transition", r)

	// A-LABEL and A-CFG against the image: a forged cross-trace link.
	set, p := recordedSet(t, 1, "mret", 8)
	from, to := set.Traces[1].Head(), set.Traces[0].Head()
	if from.Succs == nil {
		from.Succs = make(map[uint64]*trace.TBB)
	}
	from.Succs[to.Block.Head] = to
	section("cross-trace link", Automaton(core.Build(set), cfg.NewCache(p, cfg.StarDBT)))

	const golden = "testdata/findings.golden"
	if *updateFindings {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("finding text changed at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("finding text changed: %d lines, golden has %d", len(gl), len(wl))
	}
}

// forgeWrongLabel adds a transition to the head of the first multi-TBB
// trace whose label is not its target's block head.
func forgeWrongLabel(set *trace.Set) {
	for _, tr := range set.Traces {
		if len(tr.TBBs) >= 2 {
			head := tr.TBBs[0]
			if head.Succs == nil {
				head.Succs = make(map[uint64]*trace.TBB)
			}
			head.Succs[head.Block.Head^0x1] = tr.TBBs[1]
			return
		}
	}
}

// BenchmarkVerifyImage times the publish-path verifier on a clean image:
// decode, every automaton rule against the program image, compile and the
// full compiled-form audit. A clean image renders no locus.
func BenchmarkVerifyImage(b *testing.B) {
	set, p := recordedSet(b, 1, "mret", 8)
	data, err := core.Encode(core.Build(set))
	if err != nil {
		b.Fatal(err)
	}
	if r := Image(data, cfg.NewCache(p, cfg.StarDBT), core.ConfigGlobalLocal); !r.Clean() {
		b.Fatalf("fixture image not clean:\n%s", r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Image(data, cfg.NewCache(p, cfg.StarDBT), core.ConfigGlobalLocal)
	}
}
