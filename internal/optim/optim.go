// Package optim implements the trace transformations of the paper's §2
// motivation: a runtime that wants to unroll a hot trace cannot re-collect
// profile data through the TEA for the *unrolled* code (the new
// instructions have no counterpart in the executable), but it can
// **duplicate** the trace instead — the duplicated automaton labels each
// loop iteration parity with a distinct state, and the per-copy profile
// transfers directly onto the unrolled loop (Figure 1(c)/(d)).
package optim

import (
	"fmt"

	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/profile"
	"github.com/lsc-tea/tea/internal/trace"
)

// Duplicate builds a new trace set equal to s except that the trace with
// the given ID is replaced by its duplicated form: the trace body appears
// twice, the first copy's back edge flows into the second copy, and the
// second copy's back edge returns to the head (Figure 1(d)). The input set
// is not modified.
//
// Duplication requires the trace to be a simple cycle: a linear chain of
// TBBs whose last TBB links back to the head (the shape MRET records for a
// loop). Traces without that shape are rejected.
func Duplicate(s *trace.Set, id trace.ID) (*trace.Set, *trace.Trace, error) {
	var target *trace.Trace
	for _, t := range s.Traces {
		if t.ID == id {
			target = t
			break
		}
	}
	if target == nil {
		return nil, nil, fmt.Errorf("optim: no trace T%d in set", id)
	}
	if err := checkSimpleCycle(target); err != nil {
		return nil, nil, err
	}

	out := trace.NewSet(s.Strategy, s)
	var dup *trace.Trace
	for _, t := range s.Traces {
		if t != target {
			if _, err := copyTrace(out, t); err != nil {
				return nil, nil, err
			}
			continue
		}
		d, err := duplicateCycle(out, t)
		if err != nil {
			return nil, nil, err
		}
		dup = d
	}
	return out, dup, nil
}

// checkSimpleCycle verifies the trace is a linear chain b0 -> b1 -> ... ->
// bn -> b0 with exactly one in-trace successor per TBB.
func checkSimpleCycle(t *trace.Trace) error {
	for i, tbb := range t.TBBs {
		if len(tbb.Succs) != 1 {
			return fmt.Errorf("optim: %s has %d in-trace successors; need a simple cycle", tbb, len(tbb.Succs))
		}
		var succ *trace.TBB
		for _, s := range tbb.Succs {
			succ = s
		}
		wantIdx := (i + 1) % len(t.TBBs)
		if succ.Index != wantIdx {
			return fmt.Errorf("optim: %s links to index %d, want %d; not a simple cycle", tbb, succ.Index, wantIdx)
		}
	}
	return nil
}

// copyTrace clones a trace (blocks and in-trace edges) into the set.
func copyTrace(out *trace.Set, t *trace.Trace) (*trace.Trace, error) {
	nt, err := out.NewTrace(t.TBBs[0].Block)
	if err != nil {
		return nil, err
	}
	clones := make([]*trace.TBB, len(t.TBBs))
	clones[0] = nt.Head()
	for i := 1; i < len(t.TBBs); i++ {
		clones[i] = nt.Append(t.TBBs[i].Block)
	}
	for i, tbb := range t.TBBs {
		for _, succ := range tbb.Succs {
			if err := clones[i].Link(clones[succ.Index]); err != nil {
				return nil, err
			}
		}
	}
	return nt, nil
}

// duplicateCycle emits the duplicated form of a simple-cycle trace.
func duplicateCycle(out *trace.Set, t *trace.Trace) (*trace.Trace, error) {
	n := len(t.TBBs)
	nt, err := out.NewTrace(t.TBBs[0].Block)
	if err != nil {
		return nil, err
	}
	clones := make([]*trace.TBB, 2*n)
	clones[0] = nt.Head()
	for i := 1; i < 2*n; i++ {
		clones[i] = nt.Append(t.TBBs[i%n].Block)
	}
	for i := 0; i < 2*n; i++ {
		if err := clones[i].Link(clones[(i+1)%(2*n)]); err != nil {
			return nil, err
		}
	}
	return nt, nil
}

// CopyProfile reports the per-copy execution profile of a duplicated
// trace: index 0 aggregates the first copy's TBB instances, index 1 the
// second copy's. This is the specialized information an optimizer uses for
// the unrolled loop — the second copy's counts apply to the unrolled
// iteration's instructions (the paper's instructions (C)/(D) mapping onto
// (5)/(6) in Figure 1).
type CopyProfile struct {
	// Enters and Instrs aggregate per copy.
	Enters [2]uint64
	Instrs [2]uint64
	// PerTBB breaks the counts down per TBB instance, in trace order.
	PerTBB []TBBCount
}

// TBBCount is one TBB instance's profile inside a duplicated trace.
type TBBCount struct {
	Name   string
	Copy   int
	Enters uint64
	Instrs uint64
}

// ProfileByCopy splits a profile of a duplicated trace by copy. The trace
// must have an even number of TBBs (as produced by Duplicate).
func ProfileByCopy(p *profile.Profile, dup *trace.Trace) (*CopyProfile, error) {
	n := len(dup.TBBs)
	if n%2 != 0 {
		return nil, fmt.Errorf("optim: trace %v has odd length %d; not a duplicate", dup, n)
	}
	a := p.Automaton()
	out := &CopyProfile{}
	for i, tbb := range dup.TBBs {
		id, ok := a.StateFor(tbb)
		if !ok {
			return nil, fmt.Errorf("optim: %v has no state in the profiled automaton", tbb)
		}
		cp := 0
		if i >= n/2 {
			cp = 1
		}
		enters := p.StateCount(id)
		instrs := p.StateInstrs(id)
		out.Enters[cp] += enters
		out.Instrs[cp] += instrs
		out.PerTBB = append(out.PerTBB, TBBCount{
			Name: tbb.Name(), Copy: cp, Enters: enters, Instrs: instrs,
		})
	}
	return out, nil
}

// Rebuild returns the automaton for a transformed set, ready to be loaded
// alongside the original program for re-profiling (§2: "the resulting DFA
// after the trace has been duplicated can be safely loaded alongside the
// original program").
func Rebuild(s *trace.Set) *core.Automaton { return core.Build(s) }
