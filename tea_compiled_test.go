// Differential tests for the compiled flat automaton: the CompiledReplayer
// must reproduce the reference Replayer's Stats exactly — including the
// Desyncs/Resyncs degradation counters — on clean streams, on
// fault-injected streams, and on perturbed programs.
package tea_test

import (
	"context"
	"fmt"
	"testing"

	tea "github.com/lsc-tea/tea"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/faultinject"
)

// compiledFixture records a TEA on a benchmark program and captures its
// dynamic block stream.
type compiledFixture struct {
	a      *tea.Automaton
	stream []tea.StreamEdge
	tail   uint64
}

func newCompiledFixture(t *testing.T, bench string) *compiledFixture {
	t.Helper()
	p, err := tea.Benchmark(bench, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	set, err := tea.RecordTraces(context.Background(), p, "mret", tea.TraceConfig{HotThreshold: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := tea.Build(set)
	stream, tail, err := tea.CaptureStream(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) < 100 {
		t.Fatalf("%s: stream too short: %d edges", bench, len(stream))
	}
	return &compiledFixture{a: a, stream: stream, tail: tail}
}

// refStats replays a stream through the reference Replayer.
func refStats(a *tea.Automaton, lc tea.LookupConfig, stream []tea.StreamEdge) (tea.ReplayStats, core.StateID) {
	r := tea.NewReplayer(a, lc)
	for _, e := range stream {
		r.Advance(e.Label, e.Instrs)
	}
	return *r.Stats(), r.Cur()
}

// compiledStats replays a stream through the compiled batched replayer.
func compiledStats(a *tea.Automaton, lc tea.LookupConfig, stream []tea.StreamEdge) (tea.ReplayStats, core.StateID) {
	r := tea.NewCompiledReplayer(tea.Compile(a, lc))
	r.AdvanceBatch(stream)
	return *r.Stats(), r.Cur()
}

// assertSameReplay runs both replayers over the stream and demands exact
// Stats and cursor equality.
func assertSameReplay(t *testing.T, label string, a *tea.Automaton, lc tea.LookupConfig, stream []tea.StreamEdge) {
	t.Helper()
	want, wantCur := refStats(a, lc, stream)
	got, gotCur := compiledStats(a, lc, stream)
	if want != got {
		t.Fatalf("%s: stats diverge\nreference %+v\ncompiled  %+v", label, want, got)
	}
	if wantCur != gotCur {
		t.Fatalf("%s: cursor %d vs %d", label, wantCur, gotCur)
	}
}

// toEvents/fromEvents convert between the replay currency and the fault
// injector's stream shape.
func toEvents(stream []tea.StreamEdge) []faultinject.BlockEvent {
	out := make([]faultinject.BlockEvent, len(stream))
	for i, e := range stream {
		out[i] = faultinject.BlockEvent{Label: e.Label, Instrs: e.Instrs}
	}
	return out
}

func fromEvents(events []faultinject.BlockEvent) []tea.StreamEdge {
	out := make([]tea.StreamEdge, len(events))
	for i, e := range events {
		out[i] = tea.StreamEdge{Label: e.Label, Instrs: e.Instrs}
	}
	return out
}

// TestCompiledMatchesReferenceOnCleanStreams is the baseline differential:
// identical Stats on unperturbed streams across lookup configurations.
func TestCompiledMatchesReferenceOnCleanStreams(t *testing.T) {
	for _, bench := range []string{"mcf", "gcc"} {
		fx := newCompiledFixture(t, bench)
		for _, lc := range []tea.LookupConfig{
			tea.ConfigGlobalLocal,
			tea.ConfigGlobalNoLocal,
			{Local: true, LocalSize: 2},
		} {
			assertSameReplay(t, fmt.Sprintf("%s/%v", bench, lc), fx.a, lc, fx.stream)
		}
	}
}

// TestCompiledMatchesReferenceOnFaultyStreams perturbs the captured stream
// with every injector fault shape over several seeds. Dropped, duplicated
// and swapped events force the replayer through its desync/resync
// machinery, so this pins the compiled path's exact Desyncs/Resyncs
// accounting, not just the happy path.
func TestCompiledMatchesReferenceOnFaultyStreams(t *testing.T) {
	fx := newCompiledFixture(t, "mcf")
	events := toEvents(fx.stream)
	n := len(events) / 20
	for seed := int64(1); seed <= 4; seed++ {
		inj := faultinject.New(seed)
		cases := map[string][]faultinject.BlockEvent{
			"drop":      inj.DropEvents(events, n),
			"duplicate": inj.DuplicateEvents(events, n),
			"swap":      inj.SwapEvents(events, n),
			"mixed":     inj.PerturbStream(events),
		}
		for name, ev := range cases {
			stream := fromEvents(ev)
			label := fmt.Sprintf("seed=%d/%s", seed, name)
			assertSameReplay(t, label, fx.a, tea.ConfigGlobalLocal, stream)
			assertSameReplay(t, label+"/nolocal", fx.a, tea.ConfigGlobalNoLocal, stream)

			// The faulty stream must actually exercise the degradation path
			// at least once across the suite; swaps of adjacent in-trace
			// edges are the canonical desync producer.
			if name == "swap" {
				if st, _ := refStats(fx.a, tea.ConfigGlobalLocal, stream); st.Desyncs == 0 {
					t.Logf("%s: no desyncs (stream still plausible)", label)
				}
			}
		}
	}
}

// TestCompiledMatchesReferenceOnPerturbedPrograms records a TEA on the
// original program, then replays the block stream of a *perturbed* program
// against it — the stale-automaton scenario. Reference and compiled
// replayers must report the identical (nonzero-desync) statistics.
func TestCompiledMatchesReferenceOnPerturbedPrograms(t *testing.T) {
	p, err := tea.Benchmark("mcf", 60_000)
	if err != nil {
		t.Fatal(err)
	}
	set, err := tea.RecordTraces(context.Background(), p, "mret", tea.TraceConfig{HotThreshold: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := tea.Build(set)

	faults := []faultinject.ProgramFault{
		faultinject.ShiftLayout,
		faultinject.MutateBlock,
		faultinject.EraseBlock,
	}
	for seed := int64(1); seed <= 2; seed++ {
		for _, fault := range faults {
			inj := faultinject.New(seed)
			perturbed, err := inj.PerturbProgram(p, fault)
			if err != nil {
				t.Fatalf("seed=%d/%v: %v", seed, fault, err)
			}
			stream, _, err := tea.CaptureStream(perturbed)
			if err != nil {
				// A mutated or erased program may genuinely crash the guest
				// (see TestReplayPerturbedPrograms); there is then no stream
				// to differentially replay.
				t.Logf("seed=%d/%v: guest crashed: %v", seed, fault, err)
				continue
			}
			assertSameReplay(t, fmt.Sprintf("seed=%d/%v", seed, fault), a, tea.ConfigGlobalLocal, stream)
		}
	}
}

// TestReplayCompiledMatchesReplay pins the end-to-end facades: the batched
// compiled pintool must report the same stats as the reference pintool on a
// full engine run (same program, same automaton, same config).
func TestReplayCompiledMatchesReplay(t *testing.T) {
	for _, bench := range []string{"mcf", "vortex"} {
		p, err := tea.Benchmark(bench, 60_000)
		if err != nil {
			t.Fatal(err)
		}
		set, err := tea.RecordTraces(context.Background(), p, "mret", tea.TraceConfig{HotThreshold: 8}, 0)
		if err != nil {
			t.Fatal(err)
		}
		a := tea.Build(set)
		ref, err := tea.Replay(context.Background(), p, a, tea.ConfigGlobalLocal, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tea.ReplayCompiled(p, a, tea.ConfigGlobalLocal)
		if err != nil {
			t.Fatal(err)
		}
		if *ref != *got {
			t.Fatalf("%s: facade stats diverge\nReplay         %+v\nReplayCompiled %+v", bench, *ref, *got)
		}
	}
}

// TestAccountTailMatchesAccountOnly closes the loop on tail accounting: a
// captured stream plus AccountTail must equal the engine-run stats the
// pintool produces (whose Fini uses AccountOnly).
func TestAccountTailMatchesAccountOnly(t *testing.T) {
	p, err := tea.Benchmark("mcf", 60_000)
	if err != nil {
		t.Fatal(err)
	}
	set, err := tea.RecordTraces(context.Background(), p, "mret", tea.TraceConfig{HotThreshold: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := tea.Build(set)
	engine, err := tea.ReplayCompiled(p, a, tea.ConfigGlobalLocal)
	if err != nil {
		t.Fatal(err)
	}
	stream, tail, err := tea.CaptureStream(p)
	if err != nil {
		t.Fatal(err)
	}
	r := tea.NewCompiledReplayer(tea.Compile(a, tea.ConfigGlobalLocal))
	final := r.AdvanceBatch(stream)
	st := *r.Stats()
	st.AccountTail(final, tail)
	if st != *engine {
		t.Fatalf("stream+tail accounting diverges from engine run\nengine %+v\nstream %+v", *engine, st)
	}
}

// Interface guard: the compiled cursor must remain usable through the core
// package's exported surface (compile-time check that the aliases hold).
var _ *core.CompiledReplayer = (*tea.CompiledReplayer)(nil)
