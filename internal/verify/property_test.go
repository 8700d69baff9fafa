package verify

import (
	"context"
	"testing"
	"testing/quick"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/optim"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

// TestQuickRecordedAlwaysVerifies: for randomized workload programs across
// every strategy, the recorded automaton and all four compiled
// configurations pass the verifier with zero findings.
func TestQuickRecordedAlwaysVerifies(t *testing.T) {
	strategies := []string{"mret", "tt", "ctt", "mfet"}
	f := func(seed int64, stratIdx uint8, thrBits uint8) bool {
		strategy := strategies[int(stratIdx)%len(strategies)]
		threshold := 4 + int(thrBits%24)
		spec, _ := workload.ByName("181.mcf")
		spec.Seed = seed
		spec.WorkScale = 8
		p := workload.Program(spec)
		s, _ := trace.NewStrategy(strategy, p, trace.Config{HotThreshold: threshold})
		set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 2_000_000)
		if err != nil {
			t.Log(err)
			return false
		}
		a := core.Build(set)
		if r := Automaton(a, cfg.NewCache(p, cfg.StarDBT)); !r.Clean() {
			t.Logf("seed %d %s thr %d:\n%s", seed, strategy, threshold, r)
			return false
		}
		if r := Compiled(core.Compile(a, core.ConfigGlobalLocal)); !r.Clean() {
			t.Logf("seed %d %s thr %d compiled:\n%s", seed, strategy, threshold, r)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestQuickOptimOutputsAlwaysVerify: Prune and Merge outputs over
// randomized programs and thresholds always pass verify.Automaton — the
// property form of the optimization post-pass.
func TestQuickOptimOutputsAlwaysVerify(t *testing.T) {
	f := func(seed int64, minBits uint8) bool {
		spec, _ := workload.ByName("181.mcf")
		spec.Seed = seed
		spec.WorkScale = 8
		p := workload.Program(spec)
		s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 10})
		set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 2_000_000)
		if err != nil {
			t.Log(err)
			return false
		}
		a := core.Build(set)
		tool := teatool.NewProfileTool(a, core.ConfigGlobalLocal, nil)
		if _, err := pin.New().Run(p, tool, 0); err != nil {
			t.Log(err)
			return false
		}
		cache := cfg.NewCache(p, cfg.StarDBT)
		pruned, err := optim.Prune(set, tool.Profile(), uint64(1+minBits%64))
		if err != nil {
			t.Log(err)
			return false
		}
		if r := Automaton(optim.Rebuild(pruned), cache); !r.Clean() {
			t.Logf("seed %d: pruned set fails:\n%s", seed, r)
			return false
		}
		merged, err := optim.Merge(set, pruned)
		if err != nil {
			t.Log(err)
			return false
		}
		if r := Automaton(optim.Rebuild(merged), cache); !r.Clean() {
			t.Logf("seed %d: merged set fails:\n%s", seed, r)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// TestQuickVerifierMatchesReplay: the static CFG rules and the dynamic
// desync counters must agree on clean automatons — a verifier that flags
// nothing implies a replay with zero desyncs on the recording run, tying
// the static analysis back to the paper's dynamic ground truth.
func TestQuickVerifierMatchesReplay(t *testing.T) {
	f := func(seed int64) bool {
		spec, _ := workload.ByName("181.mcf")
		spec.Seed = seed
		spec.WorkScale = 8
		p := workload.Program(spec)
		s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 10})
		set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 2_000_000)
		if err != nil {
			t.Log(err)
			return false
		}
		a := core.Build(set)
		if r := Automaton(a, cfg.NewCache(p, cfg.StarDBT)); !r.Clean() {
			t.Logf("seed %d: verifier findings on clean recording:\n%s", seed, r)
			return false
		}
		tool := teatool.NewReplayTool(a, core.ConfigGlobalLocal)
		if _, err := pin.New().Run(p, tool, 0); err != nil {
			t.Log(err)
			return false
		}
		if tool.Stats().Desyncs != 0 {
			t.Logf("seed %d: clean verification but %d desyncs", seed, tool.Stats().Desyncs)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}
