package core

import (
	"context"
	"testing"
	"testing/quick"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

// randomSet records a trace set from a seeded synthetic program, giving
// the property tests a wide variety of realistic trace shapes (linear
// superblocks, trees, mid-trace duplicates, indirect-branch successors).
func randomSet(t testing.TB, seed int64, strategy string, threshold int) *trace.Set {
	t.Helper()
	spec, _ := workload.ByName("181.mcf")
	spec.Seed = seed
	spec.WorkScale = 8
	p := workload.Program(spec)
	s, ok := trace.NewStrategy(strategy, p, trace.Config{HotThreshold: threshold})
	if !ok {
		t.Fatalf("strategy %q", strategy)
	}
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestQuickAlgorithm1Postconditions verifies the paper's Properties 1 and
// 2 on automata built from randomly seeded programs across all strategies.
func TestQuickAlgorithm1Postconditions(t *testing.T) {
	strategies := []string{"mret", "tt", "ctt", "mfet"}
	f := func(seed int64, stratIdx uint8, thrBits uint8) bool {
		strategy := strategies[int(stratIdx)%len(strategies)]
		threshold := 4 + int(thrBits%24)
		set := randomSet(t, seed, strategy, threshold)
		a := Build(set)
		if err := a.Check(); err != nil {
			t.Logf("seed %d %s: %v", seed, strategy, err)
			return false
		}
		// Property 1 cardinality: states = TBBs + NTE.
		if a.NumStates() != set.NumTBBs()+1 {
			t.Logf("seed %d %s: %d states for %d TBBs", seed, strategy, a.NumStates(), set.NumTBBs())
			return false
		}
		// Determinism of the logical relation: no state has two transitions
		// on the same label.
		for i := 0; i < a.NumStates(); i++ {
			seen := make(map[uint64]bool)
			for _, tr := range a.FullTransitions(StateID(i)) {
				if seen[tr.Label] {
					t.Logf("seed %d %s: duplicate label 0x%x in state %d", seed, strategy, tr.Label, i)
					return false
				}
				seen[tr.Label] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestQuickEncodeRoundTrip: serialization round-trips byte-identically for
// random sets under every strategy.
func TestQuickEncodeRoundTrip(t *testing.T) {
	strategies := []string{"mret", "tt", "ctt"}
	f := func(seed int64, stratIdx uint8) bool {
		strategy := strategies[int(stratIdx)%len(strategies)]
		set := randomSet(t, seed, strategy, 8)
		if set.Len() == 0 {
			return true
		}
		a := Build(set)
		data, err := Encode(a)
		if err != nil {
			t.Logf("seed %d %s: encode: %v", seed, strategy, err)
			return false
		}

		spec, _ := workload.ByName("181.mcf")
		spec.Seed = seed
		spec.WorkScale = 8
		p := workload.Program(spec)
		b, err := Decode(data, cfg.NewCache(p, cfg.StarDBT))
		if err != nil {
			t.Logf("seed %d %s: decode: %v", seed, strategy, err)
			return false
		}
		again, err := Encode(b)
		if err != nil {
			t.Logf("seed %d %s: re-encode: %v", seed, strategy, err)
			return false
		}
		if string(again) != string(data) {
			t.Logf("seed %d %s: re-encode differs", seed, strategy)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestDecodeNeverPanics: every prefix truncation of a valid stream decodes
// to an error (or, for the empty-trace prefix boundaries, a valid smaller
// automaton) without panicking.
func TestDecodeNeverPanics(t *testing.T) {
	set := randomSet(t, 1, "mret", 8)
	a := Build(set)
	data := mustEncode(t, a)
	spec, _ := workload.ByName("181.mcf")
	spec.Seed = 1
	spec.WorkScale = 8
	p := workload.Program(spec)
	cache := cfg.NewCache(p, cfg.StarDBT)

	for k := 0; k <= len(data); k++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode(data[:%d]) panicked: %v", k, r)
				}
			}()
			_, _ = Decode(data[:k], cache)
		}()
	}
	// Random single-byte corruptions never panic either.
	for k := 0; k < len(data); k += 7 {
		mut := append([]byte{}, data...)
		mut[k] ^= 0x5A
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode with corrupt byte %d panicked: %v", k, r)
				}
			}()
			_, _ = Decode(mut, cache)
		}()
	}
}

// TestQuickReplayCoverageConfigInvariant: coverage is a pure function of
// the automaton and the execution — the lookup configuration must never
// change it.
func TestQuickReplayCoverageConfigInvariant(t *testing.T) {
	f := func(seed int64) bool {
		spec, _ := workload.ByName("181.mcf")
		spec.Seed = seed
		spec.WorkScale = 8
		p := workload.Program(spec)
		s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 8})
		set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 2_000_000)
		if err != nil {
			t.Log(err)
			return false
		}
		a := Build(set)
		var first float64
		for i, lc := range []LookupConfig{
			{Global: GlobalList, Local: true},
			{Global: GlobalBTree},
			{Global: GlobalBTree, Local: true, LocalSize: 2},
			{Global: GlobalHash, Local: true, LocalSize: 16},
		} {
			r := NewReplayer(a, lc)
			m := cpu.New(p)
			run := cfg.NewRunner(m, cfg.StarDBT)
			var prev uint64
			for {
				e, ok, err := run.Next()
				if err != nil {
					t.Log(err)
					return false
				}
				if !ok || e.To == nil {
					break
				}
				instrs := m.Steps() - prev
				prev = m.Steps()
				r.Advance(e.To.Head, instrs)
			}
			cov := r.Stats().Coverage()
			if i == 0 {
				first = cov
			} else if cov != first {
				t.Logf("seed %d: config %v coverage %f != %f", seed, lc, cov, first)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}
