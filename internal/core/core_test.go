package core

import (
	"context"
	"strings"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
)

// recordSet produces a trace set for p with the given strategy.
func recordSet(t *testing.T, p *isa.Program, strategy string, c trace.Config) *trace.Set {
	t.Helper()
	s, ok := trace.NewStrategy(strategy, p, c)
	if !ok {
		t.Fatalf("unknown strategy %q", strategy)
	}
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// mustEncode serializes an automaton that is known to be encodable.
func mustEncode(t testing.TB, a *Automaton) []byte {
	t.Helper()
	data, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestBuildSatisfiesProperties(t *testing.T) {
	for _, strategy := range []string{"mret", "tt", "ctt", "mfet"} {
		t.Run(strategy, func(t *testing.T) {
			p := progs.Figure2(60, 200)
			set := recordSet(t, p, strategy, trace.Config{HotThreshold: 20})
			if set.Len() == 0 {
				t.Fatal("no traces recorded")
			}
			a := Build(set)
			if err := a.Check(); err != nil {
				t.Fatal(err)
			}
			// Property 1: one state per TBB plus NTE.
			if a.NumStates() != set.NumTBBs()+1 {
				t.Errorf("states = %d, want %d", a.NumStates(), set.NumTBBs()+1)
			}
		})
	}
}

func TestEmptyAutomaton(t *testing.T) {
	set := trace.NewSet("mret", nil)
	a := NewAutomaton(set)
	if a.NumStates() != 1 || a.State(NTE).Name() != "NTE" {
		t.Error("empty automaton malformed")
	}
	if err := a.Check(); err != nil {
		t.Error(err)
	}
	if _, ok := a.EntryFor(0x1234); ok {
		t.Error("EntryFor found entry in empty automaton")
	}
}

func TestFullTransitionsFigure2(t *testing.T) {
	// Reproduce the Figure 3(b) structure for the linked-list program.
	p := progs.Figure2(60, 200)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 50})
	a := Build(set)
	header := p.Labels["header"]
	t1, ok := set.ByEntry(header)
	if !ok {
		t.Fatal("no trace at header")
	}
	headID, _ := a.StateFor(t1.Head())

	// NTE must have a transition on the trace entry label.
	nteTrans := a.FullTransitions(NTE)
	found := false
	for _, tr := range nteTrans {
		if tr.Label == header && tr.To == headID {
			found = true
		}
		if tr.From != NTE {
			t.Errorf("NTE transition with wrong From: %+v", tr)
		}
	}
	if !found {
		t.Errorf("NTE has no transition into T%d on 0x%x", t1.ID, header)
	}

	// The header state's conditional terminator has two logical successors:
	// one stays in trace (or links), the other(s) resolve somewhere.
	full := a.FullTransitions(headID)
	if len(full) < 2 {
		t.Errorf("head state has %d logical transitions, want >= 2", len(full))
	}
	inTrace := 0
	for _, tr := range full {
		if tr.InTrace {
			inTrace++
		}
	}
	if inTrace == 0 {
		t.Error("head state has no in-trace transition")
	}
}

func TestReplayMapsExecutionToTBBs(t *testing.T) {
	p := progs.Figure2(60, 200)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 50})
	a := Build(set)
	r := NewReplayer(a, ConfigGlobalLocal)

	// Re-execute the unmodified program and feed the edge stream.
	m := cpu.New(p)
	run := cfg.NewRunner(m, cfg.StarDBT)
	var prevSteps uint64
	for {
		e, ok, err := run.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok || e.To == nil {
			break
		}
		steps := m.Steps()
		instrs := steps - prevSteps
		prevSteps = steps
		st := r.Advance(e.To.Head, instrs)
		// The map must be precise: when in a state, its TBB's block head
		// equals the executing block head.
		if st != NTE {
			tbb := a.State(st).TBB
			if tbb.Block.Head != e.To.Head {
				t.Fatalf("state %v maps to 0x%x but executing 0x%x", st, tbb.Block.Head, e.To.Head)
			}
		}
	}
	stats := r.Stats()
	if stats.TraceEnters == 0 {
		t.Fatal("replay never entered a trace")
	}
	cov := stats.Coverage()
	// The scan loop dominates execution: coverage must be high.
	if cov < 0.80 {
		t.Errorf("coverage = %.3f, want >= 0.80", cov)
	}
	if stats.InTraceHits == 0 || stats.GlobalLookups == 0 {
		t.Errorf("stats incomplete: %+v", stats)
	}
}

// replayProgram replays set over a fresh execution of p and returns stats.
func replayProgram(t *testing.T, p *isa.Program, a *Automaton, cfgL LookupConfig) *Stats {
	t.Helper()
	r := NewReplayer(a, cfgL)
	m := cpu.New(p)
	run := cfg.NewRunner(m, cfg.StarDBT)
	var prevSteps uint64
	for {
		e, ok, err := run.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok || e.To == nil {
			break
		}
		instrs := m.Steps() - prevSteps
		prevSteps = m.Steps()
		r.Advance(e.To.Head, instrs)
	}
	return r.Stats()
}

func TestAllLookupConfigsAgreeOnCoverage(t *testing.T) {
	p := progs.Figure2(60, 200)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 30})
	a := Build(set)
	configs := []LookupConfig{
		ConfigNoGlobalLocal,
		ConfigGlobalNoLocal,
		ConfigGlobalLocal,
		{Global: GlobalHash, Local: true},
		{Global: GlobalBTree, Local: true, LocalSize: 1},
		{Global: GlobalBTree, Local: true, LocalSize: 16, Fanout: 4},
	}
	var want float64
	for i, c := range configs {
		st := replayProgram(t, p, a, c)
		if i == 0 {
			want = st.Coverage()
			continue
		}
		if st.Coverage() != want {
			t.Errorf("config %v coverage %.6f != %.6f", c, st.Coverage(), want)
		}
	}
}

func TestLocalCacheReducesGlobalLookups(t *testing.T) {
	p := progs.Figure2(60, 400)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 30})
	a := Build(set)
	noLocal := replayProgram(t, p, a, ConfigGlobalNoLocal)
	withLocal := replayProgram(t, p, a, ConfigGlobalLocal)
	if withLocal.GlobalLookups >= noLocal.GlobalLookups {
		t.Errorf("local cache did not reduce global lookups: %d vs %d",
			withLocal.GlobalLookups, noLocal.GlobalLookups)
	}
	if withLocal.LocalHits == 0 {
		t.Error("no local hits")
	}
}

func TestRecorderMatchesOfflineBuild(t *testing.T) {
	// Recording online (Algorithm 2) and building offline (Algorithm 1)
	// from the same strategy on the same execution must yield the same
	// automaton structure.
	p := progs.Figure2(60, 200)

	// Online.
	sOnline, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 30})
	rec := NewRecorder(sOnline, ConfigGlobalLocal)
	m := cpu.New(p)
	run := cfg.NewRunner(m, cfg.StarDBT)
	var prevSteps uint64
	for {
		e, ok, err := run.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		instrs := m.Steps() - prevSteps
		prevSteps = m.Steps()
		rec.Observe(e, instrs)
		if e.To == nil {
			break
		}
	}
	online := rec.Automaton()
	if err := online.Check(); err != nil {
		t.Fatal(err)
	}

	// Offline from an identical fresh recording.
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 30})
	offline := Build(set)

	if online.NumStates() != offline.NumStates() {
		t.Errorf("online %d states, offline %d", online.NumStates(), offline.NumStates())
	}
	if online.NumTrans() != offline.NumTrans() {
		t.Errorf("online %d transitions, offline %d", online.NumTrans(), offline.NumTrans())
	}
	if len(online.Entries()) != len(offline.Entries()) {
		t.Errorf("online %d entries, offline %d", len(online.Entries()), len(offline.Entries()))
	}
	// Identical serialized form.
	if string(mustEncode(t, online)) != string(mustEncode(t, offline)) {
		t.Error("online and offline automata serialize differently")
	}
}

func TestRecorderStateMachine(t *testing.T) {
	p := progs.Figure1(100, 10)
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 50})
	rec := NewRecorder(s, ConfigGlobalLocal)
	if rec.State() != RecInitial {
		t.Errorf("initial state = %v", rec.State())
	}
	if rec.Automaton().NumStates() != 1 {
		t.Error("fresh recorder should have only NTE")
	}
	m := cpu.New(p)
	run := cfg.NewRunner(m, cfg.StarDBT)
	sawCreating := false
	var prevSteps uint64
	for {
		e, ok, err := run.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		instrs := m.Steps() - prevSteps
		prevSteps = m.Steps()
		rec.Observe(e, instrs)
		if rec.State() == RecCreating {
			sawCreating = true
		}
		if e.To == nil {
			break
		}
	}
	if !sawCreating {
		t.Error("recorder never entered Creating")
	}
	if rec.State() != RecExecuting {
		t.Errorf("final state = %v", rec.State())
	}
	if rec.Set().Len() == 0 {
		t.Error("no traces recorded")
	}
	if rec.Replayer().Stats().Instrs == 0 {
		t.Error("recorder accounted no instructions")
	}
	for _, name := range []RecState{RecInitial, RecExecuting, RecCreating, RecState(99)} {
		_ = name.String()
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, strategy := range []string{"mret", "tt", "ctt"} {
		t.Run(strategy, func(t *testing.T) {
			p := progs.Figure2(60, 200)
			set := recordSet(t, p, strategy, trace.Config{HotThreshold: 20})
			a := Build(set)
			data := mustEncode(t, a)
			if uint64(len(data)) != EncodedSize(a) {
				t.Error("EncodedSize disagrees with Encode")
			}
			cache := cfg.NewCache(p, cfg.StarDBT)
			b, err := Decode(data, cache)
			if err != nil {
				t.Fatal(err)
			}
			if b.NumStates() != a.NumStates() || b.NumTrans() != a.NumTrans() {
				t.Errorf("decoded %d/%d, want %d/%d",
					b.NumStates(), b.NumTrans(), a.NumStates(), a.NumTrans())
			}
			// Re-encoding is byte-identical.
			if string(mustEncode(t, b)) != string(data) {
				t.Error("re-encode differs")
			}
			// The decoded set's strategy survives.
			if b.Set().Strategy != strategy {
				t.Errorf("strategy = %q", b.Set().Strategy)
			}
		})
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p := progs.Figure2(60, 200)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 30})
	a := Build(set)
	data := mustEncode(t, a)
	cache := cfg.NewCache(p, cfg.StarDBT)

	if _, err := Decode([]byte("BOGUS"), cache); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(data[:len(data)/2], cache); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := Decode(append(append([]byte{}, data...), 0xFF), cache); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Flipping an address byte must be caught by block re-discovery or
	// label validation (not silently accepted).
	mut := append([]byte{}, data...)
	mut[len(magic)+10] ^= 0x40
	if _, err := Decode(mut, cache); err == nil {
		t.Log("single-byte mutation decoded; validating invariants instead")
	}
}

func TestEncodeSmallerThanCodeReplication(t *testing.T) {
	// The headline claim of Table 1: the TEA representation is much
	// smaller than replicating trace code.
	for _, strategy := range []string{"mret", "tt", "ctt"} {
		p := progs.Figure2(64, 400)
		set := recordSet(t, p, strategy, trace.Config{HotThreshold: 20})
		if set.Len() == 0 {
			t.Fatalf("%s recorded nothing", strategy)
		}
		a := Build(set)
		tea := EncodedSize(a)
		dbt := set.CodeBytes()
		if tea >= dbt {
			t.Errorf("%s: TEA %dB not smaller than DBT %dB", strategy, tea, dbt)
		}
		savings := 1 - float64(tea)/float64(dbt)
		if savings < 0.5 {
			t.Errorf("%s: savings only %.0f%%", strategy, savings*100)
		}
	}
}

func TestDotAndSummary(t *testing.T) {
	p := progs.Figure2(60, 200)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 50})
	a := Build(set)
	dot := Dot(a, "fig3")
	for _, want := range []string{"digraph", "NTE", "->", "style=dashed"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
	sum := Summary(a)
	if !strings.Contains(sum, "NTE") || !strings.Contains(sum, "$$T") {
		t.Errorf("summary missing content:\n%s", sum)
	}
	if !strings.Contains(sum, "trace entry") {
		t.Error("summary missing entry transitions")
	}
}

func TestLookupConfigStrings(t *testing.T) {
	if ConfigGlobalLocal.String() != "btree/local" {
		t.Errorf("%q", ConfigGlobalLocal.String())
	}
	if ConfigNoGlobalLocal.String() != "list/local" {
		t.Errorf("%q", ConfigNoGlobalLocal.String())
	}
	if (LookupConfig{Global: GlobalHash}).String() != "hash/nolocal" {
		t.Errorf("%q", LookupConfig{Global: GlobalHash}.String())
	}
}

func TestLocalCacheSizeRoundedToPowerOfTwo(t *testing.T) {
	c := LookupConfig{Local: true, LocalSize: 5}.withDefaults()
	if c.LocalSize != 8 {
		t.Errorf("LocalSize = %d, want 8", c.LocalSize)
	}
}

func TestListIndexProbesGrowWithTraces(t *testing.T) {
	li := &listIndex{known: make(map[uint64]*listNode)}
	for i := uint64(1); i <= 100; i++ {
		li.Insert(i*16, StateID(i))
	}
	if li.Len() != 100 {
		t.Fatalf("Len = %d", li.Len())
	}
	li.Lookup(16) // oldest entry: scans the whole list
	if li.Probes() != 100 {
		t.Errorf("probes = %d, want 100", li.Probes())
	}
	// Re-insert replaces, does not duplicate.
	li.Insert(16, 5)
	if li.Len() != 100 {
		t.Error("duplicate insert grew the list")
	}
	if s, ok := li.Lookup(16); !ok || s != 5 {
		t.Error("replacement lost")
	}
	if _, ok := li.Lookup(7); ok {
		t.Error("found absent key")
	}
}

func TestReplayerReset(t *testing.T) {
	p := progs.Figure2(60, 100)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 30})
	a := Build(set)
	r := NewReplayer(a, ConfigGlobalLocal)
	r.Advance(p.Entry, 5)
	r.Reset()
	if r.Cur() != NTE || r.Stats().Blocks != 0 {
		t.Error("Reset incomplete")
	}
}

func TestRecorderTreeStrategiesMatchOffline(t *testing.T) {
	// Tree strategies exercise the incremental path hardest: extensions
	// re-sync existing traces, adding states to an already-live automaton.
	for _, strategy := range []string{"tt", "ctt"} {
		t.Run(strategy, func(t *testing.T) {
			p := progs.Figure2(60, 300)

			sOnline, _ := trace.NewStrategy(strategy, p, trace.Config{HotThreshold: 20})
			rec := NewRecorder(sOnline, ConfigGlobalLocal)
			m := cpu.New(p)
			run := cfg.NewRunner(m, cfg.StarDBT)
			var prev uint64
			for {
				e, ok, err := run.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				instrs := m.Steps() - prev
				prev = m.Steps()
				rec.Observe(e, instrs)
				if e.To == nil {
					break
				}
			}
			online := rec.Automaton()
			if err := online.Check(); err != nil {
				t.Fatal(err)
			}

			set := recordSet(t, p, strategy, trace.Config{HotThreshold: 20})
			offline := Build(set)
			if string(mustEncode(t, online)) != string(mustEncode(t, offline)) {
				t.Errorf("%s online and offline automata differ (%d vs %d states)",
					strategy, online.NumStates(), offline.NumStates())
			}
			// The online automaton replays with the same coverage.
			onCov := replayProgram(t, p, online, ConfigGlobalLocal).Coverage()
			offCov := replayProgram(t, p, offline, ConfigGlobalLocal).Coverage()
			if onCov != offCov {
				t.Errorf("coverage differs: %.4f vs %.4f", onCov, offCov)
			}
		})
	}
}
