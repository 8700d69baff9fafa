package ucsim

import (
	"context"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 4, Ways: 2, LineShift: 3, MissPenalty: 10})
	if p := c.Access(0); p != 10 {
		t.Errorf("cold access penalty = %d", p)
	}
	if p := c.Access(7); p != 0 {
		t.Errorf("same-line access penalty = %d", p)
	}
	if p := c.Access(8); p != 10 {
		t.Errorf("next-line access penalty = %d", p)
	}
	if c.tick != 3 {
		t.Errorf("accesses = %d, want 3", c.tick)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	// Direct conflict: 2 ways, addresses mapping to the same set.
	c := NewCache(CacheConfig{Sets: 2, Ways: 2, LineShift: 3, MissPenalty: 1})
	// Lines 0, 2, 4 all map to set 0 (line index mod 2 == 0).
	c.Access(0 << 3)
	c.Access(2 << 3)
	c.Access(0 << 3) // refresh line 0
	c.Access(4 << 3) // evicts line 2 (LRU)
	if p := c.Access(0 << 3); p != 0 {
		t.Error("line 0 evicted despite being MRU")
	}
	if p := c.Access(2 << 3); p == 0 {
		t.Error("line 2 still resident; LRU broken")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 64, Ways: 4, LineShift: 3, MissPenalty: 10})
	// A working set smaller than the cache: second pass all hits.
	misses := 0
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 64*4*8; a += 8 {
			if c.Access(a) > 0 {
				misses++
			}
		}
	}
	if misses != 64*4 {
		t.Errorf("misses = %d, want %d (compulsory only)", misses, 64*4)
	}
}

func TestCacheConfigValidation(t *testing.T) {
	for _, bad := range []CacheConfig{{Sets: 3, Ways: 1}, {Sets: 4, Ways: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", bad)
				}
			}()
			NewCache(bad)
		}()
	}
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	b := NewBranchPredictor(8)
	// Always-taken branch: after warm-up, no mispredictions.
	miss := 0
	for i := 0; i < 100; i++ {
		if !b.Predict(0x1000, true) {
			miss++
		}
	}
	if miss > 2 {
		t.Errorf("%d mispredicts on an always-taken branch", miss)
	}
	// Alternating branch: roughly half mispredicted.
	b2 := NewBranchPredictor(8)
	miss = 0
	for i := 0; i < 100; i++ {
		if !b2.Predict(0x2000, i%2 == 0) {
			miss++
		}
	}
	if miss < 30 {
		t.Errorf("alternating branch mispredicted %d of 100, suspiciously few", miss)
	}
}

func TestSimulatorAttachesToMachine(t *testing.T) {
	p := progs.Figure1(100, 10)
	m := cpu.New(p)
	sim := New(DefaultConfig())
	m.SetObserver(sim)
	if err := m.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	st := sim.Total()
	if st.Instrs != m.Steps() {
		t.Errorf("sim saw %d instrs, machine ran %d", st.Instrs, m.Steps())
	}
	if st.Cycles < st.Instrs {
		t.Error("cycles below instruction count")
	}
	cpi := st.CPI()
	// A tight loop with a tiny working set: near-ideal CPI.
	if cpi < 1.0 || cpi > 2.0 {
		t.Errorf("CPI = %.2f for a cache-resident loop", cpi)
	}
	if sim.icache.tick != st.Instrs {
		t.Error("icache not consulted per instruction")
	}
}

func TestSimulatorCountsRepAndMispredicts(t *testing.T) {
	p := progs.RepDemo(50)
	m := cpu.New(p)
	sim := New(DefaultConfig())
	m.SetObserver(sim)
	if err := m.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if sim.dcache.tick == 0 {
		t.Error("REP ops generated no data accesses")
	}
	if sim.Total().Mispredicts == 0 {
		t.Error("no branch mispredicted")
	}
}

func TestSimulateTEAAttributesCycles(t *testing.T) {
	p := progs.Figure2(60, 300)
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 50})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Build(set)
	res, err := SimulateTEA(p, a, core.ConfigGlobalLocal, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Instrs == 0 || res.Total.Cycles == 0 {
		t.Fatalf("empty totals: %+v", res.Total)
	}
	// Attribution is exhaustive: per-trace + cold == total.
	var sum Stats
	sum.Add(res.Cold)
	for _, ts := range res.PerTrace {
		sum.Add(ts.Stats)
	}
	if sum.Cycles != res.Total.Cycles || sum.Instrs != res.Total.Instrs {
		t.Errorf("attribution leak: sum %+v, total %+v", sum, res.Total)
	}
	// The scan loop dominates: hottest trace takes most cycles.
	if len(res.PerTrace) == 0 {
		t.Fatal("no per-trace stats")
	}
	if res.PerTrace[0].Stats.Cycles < res.Total.Cycles/4 {
		t.Errorf("hottest trace only %d of %d cycles", res.PerTrace[0].Stats.Cycles, res.Total.Cycles)
	}
	// Sorted descending.
	for i := 1; i < len(res.PerTrace); i++ {
		if res.PerTrace[i-1].Stats.Cycles < res.PerTrace[i].Stats.Cycles {
			t.Fatal("per-trace stats not sorted")
		}
	}
	_ = res.Total.String()
}

func TestSimulateTEADeterministic(t *testing.T) {
	p := progs.Figure2(60, 100)
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 30})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Build(set)
	r1, err := SimulateTEA(p, a, core.ConfigGlobalLocal, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SimulateTEA(p, a, core.ConfigGlobalLocal, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Total != r2.Total {
		t.Error("simulation not deterministic")
	}
}

func TestL2CatchesWhatL1Misses(t *testing.T) {
	// A working set larger than L1D but inside L2: after the first pass,
	// L1 misses hit in L2 and add no L2 misses. A set larger than L2 keeps
	// missing all the way to memory.
	loadAt := func(sim *Simulator, a int64) {
		in := isa.Instr{Op: isa.LOAD, Addr: 0x8048000, Size: 2}
		sim.Retire(&in, []cpu.MemEvent{{Addr: a}}, false)
	}

	// Fits L2 (L2 holds 512×8 = 4096 lines of 8 words): walk 8192 words.
	simA := New(DefaultConfig())
	for pass := 0; pass < 3; pass++ {
		for a := int64(0); a < 8192; a += 8 {
			loadAt(simA, a)
		}
	}
	// L2 compulsory misses only: 1024 data lines on the first pass, plus
	// one for the instruction fetch.
	if simA.Total().L2Misses != 1025 {
		t.Errorf("L2 misses = %d, want 1025 (compulsory only)", simA.Total().L2Misses)
	}

	// Exceeds L2 (walk 64k words = 8192 lines > 4096): every pass misses.
	simB := New(DefaultConfig())
	for pass := 0; pass < 3; pass++ {
		for a := int64(0); a < 65536; a += 8 {
			loadAt(simB, a)
		}
	}
	perAccessA := float64(simA.Total().Cycles) / float64(simA.Total().Instrs)
	perAccessB := float64(simB.Total().Cycles) / float64(simB.Total().Instrs)
	if perAccessB <= perAccessA {
		t.Errorf("L2-resident walk (%.1f cyc) not cheaper than thrashing walk (%.1f cyc)",
			perAccessA, perAccessB)
	}

	// Disabling L2 removes L2 accounting entirely.
	cfg := DefaultConfig()
	cfg.L2.Sets = 0
	simC := New(cfg)
	loadAt(simC, 0)
	if simC.l2 != nil || simC.Total().L2Misses != 0 {
		t.Error("disabled L2 still active")
	}
}
