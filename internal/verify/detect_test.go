package verify

import (
	"context"
	"os"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/faultinject"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/trace"
)

// semantic is the TEA-meaningful slice of replay stats: the fields that
// change when the automaton or its relationship to the program changes, and
// that stay put under perturbations the TEA genuinely does not describe
// (cold-code layout, raw instruction totals, cache-layer luck).
type semantic struct {
	traceBlocks, traceInstrs uint64
	inTraceHits              uint64
	enters, links, exits     uint64
	desyncs, resyncs         uint64
	final                    core.StateID
}

func semanticOf(s core.Stats, final core.StateID) semantic {
	return semantic{
		traceBlocks: s.TraceBlocks, traceInstrs: s.TraceInstrs,
		inTraceHits: s.InTraceHits,
		enters:      s.TraceEnters, links: s.TraceLinks, exits: s.TraceExits,
		desyncs: s.Desyncs, resyncs: s.Resyncs,
		final: final,
	}
}

// detectResult tallies one mutant class.
type detectResult struct {
	trials   int // mutants generated
	benign   int // replay behavior unchanged (not counted against detection)
	rejected int // core.Decode refused the mutant (detected by the decoder)
	flagged  int // decoded, but the static verifier reported an Error
	missed   int // decoded, verified clean, yet replay behavior changed
}

func (d detectResult) altering() int { return d.rejected + d.flagged + d.missed }
func (d detectResult) rate() float64 {
	if d.altering() == 0 {
		return 1
	}
	return float64(d.rejected+d.flagged) / float64(d.altering())
}

// detectFixture records the Figure 2 TEA once, captures its dynamic block
// stream, and precomputes the reference replay semantics.
type detectFixture struct {
	prog   *isa.Program
	cache  *cfg.Cache
	data   []byte
	stream []core.Edge
	ref    semantic
}

func newDetectFixture(t *testing.T) *detectFixture {
	t.Helper()
	p := progs.Figure2(40, 80)
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 16})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Build(set)
	data, err := core.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	cache := cfg.NewCache(p, cfg.StarDBT)
	cap := teatool.NewCaptureTool()
	if _, err := pin.New().Run(p, cap, 0); err != nil {
		t.Fatal(err)
	}
	decoded, err := core.Decode(data, cache)
	if err != nil {
		t.Fatal(err)
	}
	stats, final := core.SequentialReplay(core.Compile(decoded, core.ConfigGlobalNoLocal), cap.Stream(), nil)
	return &detectFixture{
		prog: p, cache: cache, data: data, stream: cap.Stream(),
		ref: semanticOf(stats, final),
	}
}

// auditMutant decodes and statically verifies a mutant image, then replays
// it over the recorded stream, and classifies the outcome.
func (fx *detectFixture) auditMutant(res *detectResult, mut []byte) {
	res.trials++
	a, err := core.Decode(mut, fx.cache)
	if err != nil {
		res.rejected++
		return
	}
	stats, final := core.SequentialReplay(core.Compile(a, core.ConfigGlobalNoLocal), fx.stream, nil)
	if semanticOf(stats, final) == fx.ref {
		res.benign++
		return
	}
	r := Automaton(a, fx.cache)
	r.Merge(Compiled(core.Compile(a, core.ConfigGlobalLocal)))
	if !r.OK() {
		res.flagged++
		return
	}
	res.missed++
}

// TestDetectByteMutants measures, per byte-level fault class, how many
// behavior-altering mutants the decode+verify pipeline catches. The
// acceptance bar is 80% per class; any mutant that decodes, verifies clean,
// and still changes replay behavior is a decoder/verifier gap and fails the
// test outright.
func TestDetectByteMutants(t *testing.T) {
	fx := newDetectFixture(t)
	const trials = 60
	classes := []struct {
		name   string
		mutate func(j *faultinject.Injector) []byte
	}{
		{"bytes/Truncate", func(j *faultinject.Injector) []byte { return j.Truncate(fx.data) }},
		{"bytes/FlipBits", func(j *faultinject.Injector) []byte { return j.FlipBits(fx.data, 1+int(j.Seed()%4)) }},
		{"bytes/CorruptVarint", func(j *faultinject.Injector) []byte { return j.CorruptVarint(fx.data) }},
	}
	for _, class := range classes {
		var res detectResult
		for seed := int64(0); seed < trials; seed++ {
			fx.auditMutant(&res, class.mutate(faultinject.New(seed)))
		}
		logClass(t, class.name, res)
		if res.missed > 0 {
			t.Errorf("%s: %d mutant(s) decode and verify clean yet alter replay", class.name, res.missed)
		}
		if res.rate() < 0.8 {
			t.Errorf("%s: detection rate %.2f below 0.8", class.name, res.rate())
		}
	}
}

// TestDetectProgramMutants: the program-image fault classes. The image the
// TEA is decoded and verified against is the perturbed one — the stale-TEA
// scenario — and "behavior-altering" is judged by replaying the original
// TEA over the perturbed program's own stream.
func TestDetectProgramMutants(t *testing.T) {
	fx := newDetectFixture(t)
	const trials = 25
	for _, kind := range []faultinject.ProgramFault{
		faultinject.ShiftLayout, faultinject.MutateBlock, faultinject.EraseBlock,
	} {
		var res detectResult
		for seed := int64(0); seed < trials; seed++ {
			perturbed, err := faultinject.New(seed).PerturbProgram(fx.prog, kind)
			if err != nil {
				continue // this seed found no applicable site
			}
			res.trials++
			pcache := cfg.NewCache(perturbed, cfg.StarDBT)
			a, err := core.Decode(fx.data, pcache)
			if err != nil {
				res.rejected++
				continue
			}
			// Replay over the perturbed program's own stream (bounded: a
			// perturbed program may not halt).
			cap := teatool.NewCaptureTool()
			_, _ = pin.New().RunContext(context.Background(), perturbed, cap, 4_000_000)
			stats, final := core.SequentialReplay(core.Compile(a, core.ConfigGlobalNoLocal), cap.Stream(), nil)
			if semanticOf(stats, final) == fx.ref {
				res.benign++
				continue
			}
			r := Automaton(a, pcache)
			r.Merge(Compiled(core.Compile(a, core.ConfigGlobalLocal)))
			if !r.OK() {
				res.flagged++
				continue
			}
			res.missed++
		}
		logClass(t, "program/"+kind.String(), res)
		if res.missed > 0 {
			t.Errorf("program/%s: %d mutant(s) decode and verify clean yet alter replay", kind, res.missed)
		}
		if res.rate() < 0.8 {
			t.Errorf("program/%s: detection rate %.2f below 0.8", kind, res.rate())
		}
	}
}

// TestDetectBadCFGLink: the decoder gap the verifier closes — a same-trace
// link that skips a block decodes cleanly (labels match heads, traces
// agree) but desyncs replay; the A-CFG rule must flag it statically.
func TestDetectBadCFGLink(t *testing.T) {
	fx := newDetectFixture(t)
	a, err := core.Decode(fx.data, fx.cache)
	if err != nil {
		t.Fatal(err)
	}
	set := a.Set()
	var tr *trace.Trace
	for _, c := range set.Traces {
		if len(c.TBBs) >= 3 {
			tr = c
			break
		}
	}
	if tr == nil {
		t.Skip("no trace with 3 TBBs")
	}
	if err := tr.TBBs[0].Link(tr.TBBs[2]); err != nil {
		t.Fatal(err)
	}
	bad, err := core.Encode(core.Build(set))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Decode(bad, fx.cache); err != nil {
		t.Fatalf("bad-link image should decode (that is the gap): %v", err)
	}
	r := Image(bad, fx.cache, core.ConfigGlobalLocal)
	if r.OK() {
		t.Fatalf("bad-link image verified clean:\n%s", r)
	}
	if !hasRule(r, "A-CFG") {
		t.Fatalf("expected A-CFG, got:\n%s", r)
	}
}

// TestCheckedInBadImage pins the negative-test artifact scripts/ci.sh uses:
// testdata/badcfg.bin (generated by scripts/gencorpus) must keep decoding
// cleanly against the Figure 2 image and keep failing verification on A-CFG.
func TestCheckedInBadImage(t *testing.T) {
	data, err := os.ReadFile("testdata/badcfg.bin")
	if err != nil {
		t.Fatalf("%v (regenerate with `go run ./scripts/gencorpus`)", err)
	}
	p := progs.Figure2(60, 200)
	cache := cfg.NewCache(p, cfg.StarDBT)
	if _, err := core.Decode(data, cache); err != nil {
		t.Fatalf("badcfg.bin must decode (the decoder gap is the point): %v", err)
	}
	r := Image(data, cache, core.ConfigGlobalLocal)
	if r.OK() {
		t.Fatal("badcfg.bin verified clean; the negative test is dead")
	}
	if !hasRule(r, "A-CFG") {
		t.Fatalf("expected A-CFG on badcfg.bin, got:\n%s", r)
	}
}

func logClass(t *testing.T, name string, res detectResult) {
	t.Helper()
	t.Logf("| %-22s | %3d | %3d | %3d | %3d | %3d | %.2f |",
		name, res.trials, res.benign, res.rejected, res.flagged, res.missed, res.rate())
}
