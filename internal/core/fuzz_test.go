// FuzzDecode lives in package core_test (not core) so it can drive the
// static verifier over every decoded input: internal/verify imports core,
// and the external test package breaks the cycle.
package core_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/faultinject"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/verify"
)

// corpusDir holds regression inputs for FuzzDecode and TestDecodeCorpus:
// faultinject-generated mutants of valid encodings, checked in so every
// decoder fix stays covered (regenerate with go run ./scripts/gencorpus).
const corpusDir = "testdata/decode_corpus"

// auditDecoded applies the static-verification fuzz invariant to a decoded
// automaton: the verifier must run to completion (no panic — the harness
// catches those), findings must be well-formed, and the only Error-severity
// rules a decodable image may trip are the image-consistency family — the
// decoder owns structure, the verifier owns CFG plausibility. Anything else
// means decoder and verifier disagree about a structural invariant.
func auditDecoded(t *testing.T, a *core.Automaton, cache *cfg.Cache) {
	t.Helper()
	r := verify.Automaton(a, cache)
	r.Merge(verify.Compiled(core.Compile(a, core.ConfigGlobalLocal)))
	for _, f := range r.Findings {
		if f.Rule == "" {
			t.Fatalf("finding with empty rule: %+v", f)
		}
		if f.Severity != verify.Warn && f.Severity != verify.Error {
			t.Fatalf("finding with invalid severity: %+v", f)
		}
		if f.Severity == verify.Error && f.Rule != "A-CFG" && f.Rule != "A-IMG" {
			t.Fatalf("decodable image trips structural rule %s: %s", f.Rule, f)
		}
	}
}

// FuzzDecode hammers the wire-format decoder: arbitrary bytes must decode
// to an error or to an automaton that passes Check and the static verifier
// — never panic, never return an inconsistent automaton. (go test runs the
// seed corpus; `go test -fuzz=FuzzDecode ./internal/core` explores further.)
func FuzzDecode(f *testing.F) {
	p := progs.Figure2(60, 200)
	cache := cfg.NewCache(p, cfg.StarDBT)

	// Seeds: a valid stream for each strategy, deterministic fault-injected
	// mutants of each, plus hand-picked junk.
	for _, strategy := range []string{"mret", "tt", "ctt"} {
		s, _ := trace.NewStrategy(strategy, p, trace.Config{HotThreshold: 30})
		set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
		if err != nil {
			f.Fatal(err)
		}
		data, err := core.Encode(core.Build(set))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		for _, mut := range faultinject.Corpus(1, data, 16) {
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("TEA2"))
	f.Add([]byte("TEA2\x00\x00\x00"))
	f.Add([]byte("garbage that is long enough to walk through several fields"))

	// Checked-in regression corpus.
	if files, err := filepath.Glob(filepath.Join(corpusDir, "*.bin")); err == nil {
		for _, name := range files {
			data, err := os.ReadFile(name)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := core.Decode(data, cache)
		if err != nil {
			return
		}
		if cerr := a.Check(); cerr != nil {
			t.Fatalf("decoded automaton fails Check: %v", cerr)
		}
		auditDecoded(t, a, cache)
		// A decoded automaton must re-encode decodably.
		again, err := core.Encode(a)
		if err != nil {
			t.Fatalf("decoded automaton does not re-encode: %v", err)
		}
		if _, err := core.Decode(again, cache); err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
	})
}

// TestDecodeCorpus runs every checked-in corpus file through the decoder
// under the FuzzDecode invariants, so the regression corpus is exercised
// by plain `go test` too.
func TestDecodeCorpus(t *testing.T) {
	p := progs.Figure2(60, 200)
	cache := cfg.NewCache(p, cfg.StarDBT)
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no corpus files in %s; run go run ./scripts/gencorpus", corpusDir)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Decode(data, cache)
		if err != nil {
			continue
		}
		if cerr := a.Check(); cerr != nil {
			t.Errorf("%s: decoded automaton fails Check: %v", filepath.Base(name), cerr)
		}
		auditDecoded(t, a, cache)
	}
}
