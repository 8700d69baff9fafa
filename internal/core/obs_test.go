package core

import (
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/obs"
)

// captureTestStream regenerates the dynamic block stream of the test
// program (the same loop compile_test.go uses).
func captureTestStream(t *testing.T, m *cpu.Machine) []Edge {
	t.Helper()
	var stream []Edge
	r := cfg.NewRunner(m, cfg.StarDBT)
	var prev uint64
	for {
		e, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok || e.To == nil {
			break
		}
		steps := r.Machine().Steps()
		stream = append(stream, Edge{Label: e.To.Head, Instrs: steps - prev})
		prev = steps
	}
	if len(stream) < 20 {
		t.Fatalf("stream too short: %d edges", len(stream))
	}
	return stream
}

// perturb corrupts every n-th label so the replay hits desyncs and
// resyncs; the returned stream exercises every event kind.
func perturb(stream []Edge, n int) []Edge {
	out := append([]Edge(nil), stream...)
	for i := n; i < len(out); i += n {
		out[i].Label = 0xdead0000 + uint64(i)
	}
	return out
}

// replayCounters reads the replay counter set back into a Stats for
// field-by-field comparison against the ground truth.
func replayCounters(o *obs.Obs) Stats {
	m := o.Replay
	return Stats{
		Blocks:        m.Blocks.Value(),
		Instrs:        m.Instrs.Value(),
		TraceBlocks:   m.TraceBlocks.Value(),
		TraceInstrs:   m.TraceInstrs.Value(),
		InTraceHits:   m.InTraceHits.Value(),
		LocalHits:     m.LocalHits.Value(),
		LocalMisses:   m.LocalMisses.Value(),
		GlobalLookups: m.GlobalLookups.Value(),
		GlobalHits:    m.GlobalHits.Value(),
		TraceEnters:   m.Enters.Value(),
		TraceLinks:    m.Links.Value(),
		TraceExits:    m.Exits.Value(),
		Desyncs:       m.Desyncs.Value(),
		Resyncs:       m.Resyncs.Value(),
	}
}

// TestStatsCoverageZeroGuard pins the degenerate-input contract: a replay
// that consumed no instructions reports coverage 0, never NaN, across
// every Coverage implementation.
func TestStatsCoverageZeroGuard(t *testing.T) {
	var s Stats
	if got := s.Coverage(); got != 0 {
		t.Fatalf("Stats.Coverage() on zero totals = %v, want 0", got)
	}
	s.TraceInstrs = 5 // corrupt: trace instrs without totals must still not divide by zero
	if got := s.Coverage(); got != 0 {
		t.Fatalf("Stats.Coverage() with Instrs=0 = %v, want 0", got)
	}
	var is InstrStats
	if got := is.Coverage(); got != 0 {
		t.Fatalf("InstrStats.Coverage() on zero totals = %v, want 0", got)
	}
}

// TestAccountTailDegenerate audits AccountTail on the degenerate inputs:
// zero instructions must account nothing (the initial pseudo-edge), from
// both NTE and a trace state.
func TestAccountTailDegenerate(t *testing.T) {
	var s Stats
	s.AccountTail(NTE, 0)
	s.AccountTail(StateID(3), 0)
	if s != (Stats{}) {
		t.Fatalf("AccountTail(_, 0) mutated stats: %+v", s)
	}
	s.AccountTail(NTE, 7)
	if s.Blocks != 1 || s.Instrs != 7 || s.TraceBlocks != 0 || s.TraceInstrs != 0 {
		t.Fatalf("AccountTail(NTE, 7): %+v", s)
	}
	s.AccountTail(StateID(2), 5)
	if s.Blocks != 2 || s.Instrs != 12 || s.TraceBlocks != 1 || s.TraceInstrs != 5 {
		t.Fatalf("AccountTail(state, 5): %+v", s)
	}
	if got := s.Coverage(); got <= 0 || got >= 1 {
		t.Fatalf("Coverage after tails = %v", got)
	}
}

// TestObsEnabledDoesNotPerturbStats replays the same stream with and
// without an observability context on every replayer flavour and demands
// byte-identical Stats and cursors: observation must never change what is
// observed.
func TestObsEnabledDoesNotPerturbStats(t *testing.T) {
	a, m := buildTestAutomaton(t)
	stream := perturb(captureTestStream(t, m), 7)

	for _, cfgCase := range []LookupConfig{
		ConfigGlobalLocal,
		{Global: GlobalBTree, Local: false},
		{Global: GlobalHash, Local: true},
	} {
		// Reference replayer.
		plain := NewReplayer(a, cfgCase)
		for _, e := range stream {
			plain.Advance(e.Label, e.Instrs)
		}
		observed := NewReplayer(a, cfgCase)
		observed.SetObs(obs.New())
		for _, e := range stream {
			observed.Advance(e.Label, e.Instrs)
		}
		if *plain.Stats() != *observed.Stats() || plain.Cur() != observed.Cur() {
			t.Fatalf("%v: reference replayer perturbed by obs:\nplain %+v\nobs   %+v",
				cfgCase, *plain.Stats(), *observed.Stats())
		}

		// Compiled batched replayer.
		cb := NewCompiledReplayer(Compile(a, cfgCase))
		cb.AdvanceBatch(stream)
		co := NewCompiledReplayer(Compile(a, cfgCase))
		co.SetObs(obs.New())
		co.AdvanceBatch(stream)
		if *cb.Stats() != *co.Stats() || cb.Cur() != co.Cur() {
			t.Fatalf("%v: compiled replayer perturbed by obs:\nplain %+v\nobs   %+v",
				cfgCase, *cb.Stats(), *co.Stats())
		}
	}
}

// TestCompiledBatchFoldsCounters pins the counter-fold contract: after a
// batched replay with obs attached, the counter set equals the Stats.
func TestCompiledBatchFoldsCounters(t *testing.T) {
	a, m := buildTestAutomaton(t)
	stream := perturb(captureTestStream(t, m), 9)
	o := obs.New()
	r := NewCompiledReplayer(Compile(a, ConfigGlobalLocal))
	r.SetObs(o)
	r.AdvanceBatch(stream[:len(stream)/2])
	r.AdvanceBatch(stream[len(stream)/2:])
	r.AccountOnly(11)
	if got := replayCounters(o); got != *r.Stats() {
		t.Fatalf("counters diverge from stats:\ncounters %+v\nstats    %+v", got, *r.Stats())
	}
}

// TestReplayerFlushObs pins the reference replayer's lazy fold: counters
// are zero until FlushObs, equal to Stats after, and flushing twice does
// not double-count.
func TestReplayerFlushObs(t *testing.T) {
	a, m := buildTestAutomaton(t)
	stream := captureTestStream(t, m)
	o := obs.New()
	r := NewReplayer(a, ConfigGlobalLocal)
	r.SetObs(o)
	for _, e := range stream {
		r.Advance(e.Label, e.Instrs)
	}
	if got := replayCounters(o); got.Blocks != 0 {
		t.Fatalf("counters folded before FlushObs: %+v", got)
	}
	r.FlushObs()
	r.FlushObs()
	if got := replayCounters(o); got != *r.Stats() {
		t.Fatalf("counters diverge after FlushObs:\ncounters %+v\nstats    %+v", got, *r.Stats())
	}
}

// TestBTreeProbeHistogram checks the B+ tree probe hook wiring: replaying
// with the btree container and obs attached must populate the
// tea_btree_probe_depth histogram.
func TestBTreeProbeHistogram(t *testing.T) {
	a, m := buildTestAutomaton(t)
	stream := captureTestStream(t, m)
	o := obs.New()
	r := NewReplayer(a, ConfigGlobalLocal)
	r.SetObs(o)
	for _, e := range stream {
		r.Advance(e.Label, e.Instrs)
	}
	h := o.Reg.Histogram("tea_btree_probe_depth", "", obs.ProbeDepthBuckets)
	if _, count, _ := h.Buckets(); count == 0 {
		t.Fatal("tea_btree_probe_depth never observed")
	}
	// The trace-side probe histogram must agree with the container's own
	// accounting direction: at least one observation, none deeper than the
	// tree could be.
	if _, count, sum := o.Replay.ProbeDepth.Buckets(); count == 0 || sum == 0 {
		t.Fatalf("tea_replay_probe_depth empty: count=%d sum=%d", count, sum)
	}
}

// eventsEqual compares two event streams exactly.
func eventsEqual(t *testing.T, label string, a, b []obs.Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: event counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: event %d differs:\n%+v\n%+v", label, i, a[i], b[i])
		}
	}
}

// TestEventLogRoundTripFromReplay drains a real replay's ring into the
// binary log and back — the teadump -events contract end to end.
func TestEventLogRoundTripFromReplay(t *testing.T) {
	a, m := buildTestAutomaton(t)
	stream := perturb(captureTestStream(t, m), 6)
	o := obs.NewWith(obs.NewRegistry(), 1<<16)
	r := NewCompiledReplayer(Compile(a, ConfigGlobalLocal))
	r.SetObs(o)
	r.AdvanceBatch(stream)
	events, _ := o.Tracer.Drain()
	if len(events) == 0 {
		t.Fatal("replay produced no events")
	}
	enc := obs.EncodeEvents(events)
	dec, err := obs.DecodeEvents(enc)
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, "round trip", events, dec)
}
