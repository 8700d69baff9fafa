package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/lsc-tea/tea/internal/asm"
	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/faultinject"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
)

// The record-mode lockstep junction test: MergeRecord finds the junction by
// re-scanning the true and the speculative side together, and its results
// must equal a sequential pass — over whole streams cut at random points,
// and over single chunks entered from random true states, desynced ones
// included — on clean, perturbed and fault-injected streams. Merge, its
// replay twin, is held by the differential oracle in internal/pipeline
// (TestReferenceEventOracle, FuzzExecutors).

// replayFrom is the sequential reference from an arbitrary entry state: the
// memoryless transition function, edge by edge, as SequentialReplay runs it
// from (NTE, in-sync).
func replayFrom(c *Compiled, seg []Edge, cur StateID, des bool) (Stats, StateID, bool) {
	var st Stats
	for _, e := range seg {
		cur, des = step[obsOff](c, cur, des, e.Label, e.Instrs, &st, nil, 0)
	}
	return st, cur, des
}

// lockCase is one recorded program: its automaton and its block stream as
// the recorder sees it (final nil-To edge included).
type lockCase struct {
	name   string
	a      *Automaton
	edges  []cfg.Edge
	instrs []uint64
}

func lockCases(t *testing.T) []lockCase {
	t.Helper()
	var out []lockCase
	for _, p := range []*isa.Program{
		asm.MustAssemble("compiletest", compileTestProg),
		progs.Figure2(40, 30),
		progs.CallDemo(40),
	} {
		lc := lockCase{name: p.Name, a: Build(recordSet(t, p, "mret", trace.Config{HotThreshold: 4}))}
		r := cfg.NewRunner(cpu.New(p), cfg.StarDBT)
		var prev uint64
		for {
			e, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			steps := r.Machine().Steps()
			lc.edges = append(lc.edges, e)
			lc.instrs = append(lc.instrs, steps-prev)
			prev = steps
		}
		if lc.a.NumStates() < 3 || len(lc.edges) < 100 {
			t.Fatalf("%s: %d states, %d edges: too small to exercise junctions", lc.name, lc.a.NumStates(), len(lc.edges))
		}
		out = append(out, lc)
	}
	return out
}

// faultOrder is a fault-injected reordering of the indices 0..n-1: events
// dropped, duplicated or swapped, as a lossy stream transport delivers them.
func faultOrder(seed int64, n int) []int {
	ev := make([]faultinject.BlockEvent, n)
	for i := range ev {
		ev[i].Label = uint64(i)
	}
	j := faultinject.New(seed)
	ev = j.DropEvents(ev, n/40+1)
	ev = j.DuplicateEvents(ev, n/40+1)
	ev = j.SwapEvents(ev, n/40+1)
	out := make([]int, len(ev))
	for i := range ev {
		out[i] = int(ev[i].Label)
	}
	return out
}

// recStream is a record-mode stream: edges and their instruction counts.
type recStream struct {
	edges  []cfg.Edge
	instrs []uint64
}

// recStreams returns the case's record streams: clean, perturbed (every
// seventh edge sent to a block outside the program) and fault-injected.
func (lc *lockCase) recStreams() map[string]recStream {
	out := map[string]recStream{"clean": {lc.edges, lc.instrs}}
	pert := append([]cfg.Edge(nil), lc.edges...)
	for i := 7; i < len(pert); i += 7 {
		if pert[i].To != nil {
			pert[i].To = &cfg.Block{Head: 0xdead0000 + uint64(i)}
		}
	}
	out["perturbed"] = recStream{pert, lc.instrs}
	var fe []cfg.Edge
	var fi []uint64
	for _, k := range faultOrder(int64(len(lc.edges)), len(lc.edges)) {
		fe = append(fe, lc.edges[k])
		fi = append(fi, lc.instrs[k])
	}
	out["faultinject"] = recStream{fe, fi}
	return out
}

// randomState is a random true entry state: any state, NTE included, with
// the desync flag set one time in three (also off NTE, which step never
// produces but a forced cursor can hold).
func randomState(rng *rand.Rand, a *Automaton) (StateID, bool) {
	return StateID(rng.Intn(a.NumStates())), rng.Intn(3) == 0
}

// recRun is a record-mode outcome, copied out of the Reconciler's scratch.
type recRun struct {
	st       Stats
	cur      StateID
	des      bool
	cands    []RecCand
	evs      []obs.Event
	searches []RecSearch
}

func (m *RecMerge) run() recRun {
	return recRun{m.Delta, m.ExitCur, m.ExitDes, append([]RecCand{}, m.Cands...),
		append([]obs.Event{}, m.Evs...), append([]RecSearch{}, m.Searches...)}
}

// recRef is the sequential record-mode reference from (cur, des): a
// recorder's cursor (a cache-less Replayer over the same automaton, driven
// as Recorder.Observe drives it while executing) for the Stats and exit
// state, and a true scan from the entry state for the candidate, event and
// search lists.
func recRef(a *Automaton, c *Compiled, edges []cfg.Edge, instrs []uint64, cur StateID, des, on bool) recRun {
	rep := NewReplayer(a, ConfigGlobalNoLocal)
	rep.ForceState(cur)
	rep.ForceDesync(des)
	for i, e := range edges {
		if e.To != nil {
			rep.Advance(e.To.Head, instrs[i])
		} else {
			rep.AccountOnly(instrs[i])
		}
	}
	var tr SpecResult
	if on {
		recScan[obsOn](c, edges, instrs, cur, des, &tr, nil)
	} else {
		recScan[obsOff](c, edges, instrs, cur, des, &tr, nil)
	}
	return recRun{*rep.Stats(), rep.Cur(), rep.Desynced(), append([]RecCand{}, tr.Cands...),
		append([]obs.Event{}, tr.Evs...), append([]RecSearch{}, tr.Searches...)}
}

// TestMergeRecordLockstepMatchesSequential is the MergeRecord twin:
// SpecRecord + MergeRecord over random cuts equals the recorder's sequential
// cursor over the whole stream (Stats, exit state, and the candidates a
// true scan finds), and MergeRecord of a single chunk from a random true
// entry state — obs scans included — equals the sequential reference from
// that state.
func TestMergeRecordLockstepMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, lc := range lockCases(t) {
		c := Compile(lc.a, ConfigGlobalNoLocal)
		for sname, rs := range lc.recStreams() {
			name := lc.name + "/" + sname
			edges, instrs := rs.edges, rs.instrs
			want := recRef(lc.a, c, edges, instrs, NTE, false, false)
			if sname != "clean" && want.st.Desyncs == 0 {
				t.Fatalf("%s: the stream never desyncs", name)
			}
			if len(want.cands) == 0 {
				t.Fatalf("%s: the stream yields no head candidates", name)
			}
			var rc Reconciler
			var sr SpecResult
			for trial := 0; trial < 8; trial++ {
				var total Stats
				var cands []RecCand
				cur, des := NTE, false
				maxSeg := 1 + rng.Intn(len(edges)/2)
				for i := 0; i < len(edges); {
					j := min(i+1+rng.Intn(maxSeg), len(edges))
					c.SpecRecord(edges[i:j], instrs[i:j], &sr)
					m := rc.MergeRecord(c, edges[i:j], instrs[i:j], cur, des, &sr)
					total.Add(&m.Delta)
					for _, cd := range m.Cands {
						cands = append(cands, RecCand{Idx: cd.Idx + int32(i), Head: cd.Head})
					}
					cur, des = m.ExitCur, m.ExitDes
					i = j
				}
				if total != want.st || cur != want.cur || des != want.des || !reflect.DeepEqual(cands, want.cands) {
					t.Fatalf("%s trial %d: merged chunks %+v exit=(%d,%v) %d cands, sequential %+v exit=(%d,%v) %d cands",
						name, trial, total, cur, des, len(cands), want.st, want.cur, want.des, len(want.cands))
				}
			}

			for trial := 0; trial < 60; trial++ {
				i := rng.Intn(len(edges))
				j := i + 1 + rng.Intn(min(len(edges)-i, 400))
				cur, des := randomState(rng, lc.a)
				for _, on := range []bool{false, true} {
					w := recRef(lc.a, c, edges[i:j], instrs[i:j], cur, des, on)
					if on {
						c.SpecRecordObs(edges[i:j], instrs[i:j], &sr)
					} else {
						c.SpecRecord(edges[i:j], instrs[i:j], &sr)
					}
					m := rc.MergeRecord(c, edges[i:j], instrs[i:j], cur, des, &sr)
					if got := m.run(); !reflect.DeepEqual(got, w) {
						t.Fatalf("%s: [%d,%d) from (%d,%v) obs=%v: MergeRecord %+v exit=(%d,%v) %d cands %d evs %d searches, sequential %+v exit=(%d,%v) %d cands %d evs %d searches",
							name, i, j, cur, des, on, m.Delta, got.cur, got.des, len(got.cands), len(got.evs), len(got.searches),
							w.st, w.cur, w.des, len(w.cands), len(w.evs), len(w.searches))
					}
				}
			}
		}
	}
}
