package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/trace"
)

// testStream drives the recorded program again and captures its edges.
func testStream(t *testing.T) (*Automaton, []Edge) {
	t.Helper()
	a, m := buildTestAutomaton(t)
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
	return a, stream
}

// TestSpecializeFindsCycles: the loop-nest test program must yield at least
// one fused cycle, every entry must be self-consistent, and the original
// Compiled must stay untouched.
func TestSpecializeFindsCycles(t *testing.T) {
	a, stream := testStream(t)
	c := Compile(a, ConfigGlobalLocal)
	spec := Specialize(c, stream)

	if c.Specialized() {
		t.Fatal("Specialize mutated its input")
	}
	if !spec.Specialized() {
		t.Fatal("no stride entries found on a loop-nest automaton")
	}
	tab := spec.StrideTable()
	for i, e := range tab {
		if len(e.Pattern) == 0 || len(e.Pattern) != len(e.States) {
			t.Fatalf("entry %d: pattern/states shape %d/%d", i, len(e.Pattern), len(e.States))
		}
		if e.Exit != e.Anchor {
			t.Fatalf("entry %d: exit %d != anchor %d", i, e.Exit, e.Anchor)
		}
		if e.States[len(e.States)-1] != e.Anchor {
			t.Fatalf("entry %d: trajectory does not return to anchor", i)
		}
		if e.Edges != uint64(len(e.Pattern)) {
			t.Fatalf("entry %d: Edges %d != k %d", i, e.Edges, len(e.Pattern))
		}
		miss := map[int32]bool{}
		for _, p := range e.MissPos {
			miss[p] = true
		}
		// Re-run the admission proof: simulate the pattern with the
		// production transition function, checking the trajectory, the
		// in-trace/miss classification and the cache-less delta.
		var sum uint64
		var delta Stats
		cur, des := e.Anchor, false
		for j, p := range e.Pattern {
			inTrace := false
			if cur != NTE {
				if _, ok := spec.NextState(cur, p.Label); ok {
					inTrace = true
				}
			}
			if inTrace == miss[int32(j)] {
				t.Fatalf("entry %d edge %d: miss classification mismatch (in-trace=%v, MissPos says %v)",
					i, j, inTrace, miss[int32(j)])
			}
			cur, des = step[obsOff](spec, cur, des, p.Label, p.Instrs, &delta, nil, 0)
			if des {
				t.Fatalf("entry %d edge %d: pattern desyncs under simulation", i, j)
			}
			if cur != e.States[j] {
				t.Fatalf("entry %d edge %d: production walk %d != recorded %d",
					i, j, cur, e.States[j])
			}
			sum += p.Instrs
		}
		if sum != e.Instrs {
			t.Fatalf("entry %d: Instrs %d != pattern sum %d", i, e.Instrs, sum)
		}
		if delta != e.DeltaGlobal {
			t.Fatalf("entry %d: DeltaGlobal %+v != simulated %+v", i, e.DeltaGlobal, delta)
		}
		// DeltaLocal and Crossings must be exactly the declared rewrite of
		// the simulated delta.
		var cross uint64
		dl := e.DeltaGlobal
		for _, p := range e.MissPos {
			from := e.Anchor
			if p > 0 {
				from = e.States[p-1]
			}
			if from == NTE || e.States[p] == NTE {
				cross++
			}
			if from == NTE {
				continue
			}
			dl.GlobalLookups--
			if e.States[p] != NTE {
				dl.GlobalHits--
			}
			dl.LocalHits++
		}
		if cross != e.Crossings {
			t.Fatalf("entry %d: Crossings %d != recomputed %d", i, e.Crossings, cross)
		}
		if dl != e.DeltaLocal {
			t.Fatalf("entry %d: DeltaLocal %+v != derived %+v", i, e.DeltaLocal, dl)
		}
	}
}

// TestSpecializedMidCycleDesync corrupts labels inside the steady-state
// cycle region and checks the specialized replayer against the reference —
// Desyncs/Resyncs byte-exact even when the fault lands mid-traversal.
func TestSpecializedMidCycleDesync(t *testing.T) {
	a, stream := testStream(t)
	c := Compile(a, ConfigGlobalLocal)
	spec := Specialize(c, stream)

	for _, at := range []int{len(stream) / 4, len(stream) / 2, len(stream) - 2} {
		for _, label := range []uint64{0xdeadbeef, 0, stream[0].Label} {
			mut := append([]Edge(nil), stream...)
			mut[at].Label = label

			ref := NewReplayer(a, ConfigGlobalLocal)
			for _, e := range mut {
				ref.Advance(e.Label, e.Instrs)
			}
			fused := NewCompiledReplayer(spec)
			fused.AdvanceBatch(mut)
			if *ref.Stats() != *fused.Stats() || ref.Cur() != fused.Cur() {
				t.Fatalf("fault at %d label 0x%x: specialized diverges from reference:\nref   %+v cur=%d\nfused %+v cur=%d",
					at, label, *ref.Stats(), ref.Cur(), *fused.Stats(), fused.Cur())
			}
		}
	}
}

// TestSpecializedSpecReplayTrajectory holds the stride-aware speculative
// scan against the per-edge one on what junction reconciliation consumes:
// identical Stats and exit state, and identical Merge results — equal to a
// sequential replay — from random true entry states on random segments.
func TestSpecializedSpecReplayTrajectory(t *testing.T) {
	a, stream := testStream(t)
	c := Compile(a, LookupConfig{Global: GlobalHash})
	spec := Specialize(c, stream)

	var plain, fused SpecResult
	samePass := func(what string) {
		t.Helper()
		if plain.Stats != fused.Stats || plain.ExitCur != fused.ExitCur || plain.ExitDes != fused.ExitDes {
			t.Fatalf("%s: SpecReplay diverges:\nplain %+v exit=(%d,%v)\nfused %+v exit=(%d,%v)",
				what, plain.Stats, plain.ExitCur, plain.ExitDes, fused.Stats, fused.ExitCur, fused.ExitDes)
		}
	}
	c.SpecReplay(stream, &plain)
	spec.SpecReplay(stream, &fused)
	samePass("whole stream")
	if want, cur := SequentialReplay(c, stream, nil); plain.Stats != want || plain.ExitCur != cur || plain.ExitDes {
		t.Fatalf("SpecReplay %+v exit=(%d,%v), sequential %+v cur=%d", plain.Stats, plain.ExitCur, plain.ExitDes, want, cur)
	}

	rng := rand.New(rand.NewSource(9))
	var rc Reconciler
	for trial := 0; trial < 300; trial++ {
		i := rng.Intn(len(stream))
		seg := stream[i : i+1+rng.Intn(len(stream)-i)]
		cur, des := StateID(rng.Intn(a.NumStates())), rng.Intn(3) == 0
		c.SpecReplay(seg, &plain)
		spec.SpecReplay(seg, &fused)
		samePass(fmt.Sprintf("segment [%d,%d)", i, i+len(seg)))
		want, wcur, wdes := replayFrom(c, seg, cur, des)
		for _, m := range []struct {
			img *Compiled
			r   *SpecResult
		}{{c, &plain}, {spec, &fused}} {
			st, gcur, gdes := rc.Merge(m.img, seg, 0, cur, des, m.r, nil)
			if st != want || gcur != wcur || gdes != wdes {
				t.Fatalf("segment [%d,%d) from (%d,%v), stride=%v: Merge %+v exit=(%d,%v), want %+v exit=(%d,%v)",
					i, i+len(seg), cur, des, m.img == spec, st, gcur, gdes, want, wcur, wdes)
			}
		}
	}

	// Dirty the result with a desynced pass, then rerun the clean stream:
	// no state of the dirty pass may leak through the stride path.
	spec.SpecReplay(perturb(stream, 5), &fused)
	if fused.Stats.Desyncs == 0 {
		t.Fatal("the dirty pass never desynced")
	}
	c.SpecReplay(stream, &plain)
	spec.SpecReplay(stream, &fused)
	samePass("after a desynced pass")
}

// TestSpecializedParallelAndSequential: the stride-aware sequential replay
// agrees byte for byte with the plain one. Its sharded half lives in the
// pipeline suite, which replays a Specialize'd image through the pipeline
// (internal/pipeline TestReplayPipelineMatchesSequential).
func TestSpecializedParallelAndSequential(t *testing.T) {
	a, stream := testStream(t)
	c := Compile(a, LookupConfig{Global: GlobalHash})
	spec := Specialize(c, stream)

	seqSt, seqCur := SequentialReplay(c, stream, nil)
	specSeqSt, specSeqCur := SequentialReplay(spec, stream, nil)

	if seqSt != specSeqSt || seqCur != specSeqCur {
		t.Fatalf("specialized SequentialReplay diverges:\nplain %+v\nspec  %+v", seqSt, specSeqSt)
	}
}

// TestStrideZeroAllocSteadyState is the permanent 0 allocs/edge gate for
// the stride path, obs off and on.
func TestStrideZeroAllocSteadyState(t *testing.T) {
	a, stream := testStream(t)
	spec := Specialize(Compile(a, ConfigGlobalLocal), stream)

	r := NewCompiledReplayer(spec)
	r.AdvanceBatch(stream) // warm caches
	if n := testing.AllocsPerRun(20, func() { r.AdvanceBatch(stream) }); n != 0 {
		t.Fatalf("stride AdvanceBatch obs=off allocates %.2f per batch, want 0", n)
	}

	ro := NewCompiledReplayer(spec)
	ro.SetObs(obs.New())
	ro.AdvanceBatch(stream)
	if n := testing.AllocsPerRun(20, func() { ro.AdvanceBatch(stream) }); n != 0 {
		t.Fatalf("stride AdvanceBatch obs=on allocates %.2f per batch, want 0", n)
	}
}

// TestStrideTableRoundTrip: encode → decode is deep-equal, and the decoded
// table attached via WithStrideTable replays identically to the original
// specialized form.
func TestStrideTableRoundTrip(t *testing.T) {
	a, stream := testStream(t)
	c := Compile(a, ConfigGlobalLocal)
	spec := Specialize(c, stream)

	tab := spec.StrideTable()
	blob := EncodeStrideTable(tab)
	back, err := DecodeStrideTable(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tab, back) {
		t.Fatal("stride table round trip not deep-equal")
	}

	attached := c.WithStrideTable(back)
	want := NewCompiledReplayer(spec)
	want.AdvanceBatch(stream)
	got := NewCompiledReplayer(attached)
	got.AdvanceBatch(stream)
	if *want.Stats() != *got.Stats() || want.StrideEdges() != got.StrideEdges() {
		t.Fatal("decoded stride table replays differently from Specialize's")
	}

	// Corrupt wire bytes must yield a structured *DecodeError, never a panic.
	for _, cut := range []int{0, 3, 5, len(blob) / 2, len(blob) - 1} {
		if _, err := DecodeStrideTable(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		} else if _, ok := err.(*DecodeError); !ok {
			t.Fatalf("truncation at %d: error %T, want *DecodeError", cut, err)
		}
	}
}

// TestStrideMissWarmOnColdCaches holds the cached kernel's warm check on an
// entry whose miss positions leave trace states. Two one-block traces jump
// to each other, so the cycle X→Y→X is two trace links that the local
// caches resolve. The cycle's pattern matches on its first traversal from a
// cold replayer, where fusing would charge warm local hits the caches do not
// yet hold. Later a label that shares X's slot with Y's evicts that slot
// after the check has passed, so a warm memo that survived a slot write
// would fuse on a cold slot too. Either fault makes the compiled replayer
// diverge from the reference.
func TestStrideMissWarmOnColdCaches(t *testing.T) {
	const x, y = 0x100, 0x200
	set := trace.NewSet("manual", nil)
	for _, head := range []uint64{x, y} {
		term := &isa.Instr{Addr: head + 12, Op: isa.JMP, Target: x ^ y ^ head, Size: 4}
		if _, err := set.NewTrace(&cfg.Block{Head: head, End: term.Addr, NumInstrs: 4, Bytes: 16, Term: term}); err != nil {
			t.Fatal(err)
		}
	}
	a := Build(set)
	c := Compile(a, ConfigGlobalLocal)
	spec := Specialize(c, nil)
	linked := false
	for _, e := range spec.StrideTable() {
		for _, p := range e.MissPos {
			from := e.Anchor
			if p > 0 {
				from = e.States[p-1]
			}
			linked = linked || from != NTE
		}
	}
	if !linked {
		t.Fatal("no stride entry has a miss from a trace state")
	}

	// Enter X, spin the cycle, leave X by a label that maps to the slot
	// Y's link occupies (an impossible successor: a desync, then a resync
	// at X's entry), and spin again.
	evict := uint64(y + 2*c.LocalSize())
	stream := []Edge{{Label: x}}
	for round := 0; round < 3; round++ {
		for i := 0; i < 6; i++ {
			stream = append(stream, Edge{Label: y, Instrs: 4}, Edge{Label: x, Instrs: 4})
		}
		stream = append(stream, Edge{Label: evict, Instrs: 4}, Edge{Label: x, Instrs: 1})
	}
	ref := NewReplayer(a, ConfigGlobalLocal)
	for _, e := range stream {
		ref.Advance(e.Label, e.Instrs)
	}
	for _, bs := range []int{len(stream), 7} {
		r := NewCompiledReplayer(spec)
		for i := 0; i < len(stream); i += bs {
			r.AdvanceBatch(stream[i:min(i+bs, len(stream))])
		}
		if *r.Stats() != *ref.Stats() || r.Cur() != ref.Cur() || r.Desynced() != ref.Desynced() {
			t.Fatalf("batch %d: compiled %+v cur=%d des=%v, reference %+v cur=%d des=%v",
				bs, *r.Stats(), r.Cur(), r.Desynced(), *ref.Stats(), ref.Cur(), ref.Desynced())
		}
		if r.StrideEdges() == 0 {
			t.Fatalf("batch %d: the linked cycle never fused", bs)
		}
	}
}
