// Package profile collects per-TBB and per-edge execution profiles on top
// of a replayed or recorded TEA.
//
// This is the paper's central motivation (§2): because the automaton gives
// every *instance* of a duplicated block its own state, profile collected
// through TEA can "label duplicate instructions differently for every copy
// of it in the running program" — the information an optimizer needs after
// loop unrolling or inlining. The package also computes trace exit ratios
// and detects program phases from them, the Wimmer-style application the
// paper cites in §5.
package profile

import (
	"sort"

	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/trace"
)

// Edge is one observed automaton transition.
type Edge struct {
	From core.StateID
	To   core.StateID
}

// Profile accumulates execution counts keyed by automaton state, so each
// TBB instance — including duplicates of the same block — has its own
// counters.
type Profile struct {
	a      *core.Automaton
	states map[core.StateID]uint64
	instrs map[core.StateID]uint64
	edges  map[Edge]uint64
}

// New creates an empty profile over automaton a.
func New(a *core.Automaton) *Profile {
	return &Profile{
		a:      a,
		states: make(map[core.StateID]uint64),
		instrs: make(map[core.StateID]uint64),
		edges:  make(map[Edge]uint64),
	}
}

// Automaton returns the profiled automaton.
func (p *Profile) Automaton() *core.Automaton { return p.a }

// Observe records one transition: the state `from` finished a block of
// instrs dynamic instructions and control moved to state `to`.
func (p *Profile) Observe(from, to core.StateID, instrs uint64) {
	p.instrs[from] += instrs
	p.states[to]++
	p.edges[Edge{from, to}]++
}

// StateCount returns how many times the state was entered.
func (p *Profile) StateCount(id core.StateID) uint64 { return p.states[id] }

// StateInstrs returns the dynamic instructions attributed to the state.
func (p *Profile) StateInstrs(id core.StateID) uint64 { return p.instrs[id] }

// ExitRatio returns, for the trace, side exits divided by head entries: the
// trace-stability measure phase detection keys on. A ratio near zero means
// execution cycles inside the trace; a high ratio means the trace no longer
// matches the program's behaviour.
func (p *Profile) ExitRatio(t *trace.Trace) float64 {
	headID, ok := p.a.StateFor(t.Head())
	if !ok {
		return 0
	}
	var entered, exited uint64
	for _, tbb := range t.TBBs {
		id, ok := p.a.StateFor(tbb)
		if !ok {
			continue
		}
		// Exits: transitions from this state to NTE or to another trace.
		for e, n := range p.edges {
			if e.From != id {
				continue
			}
			if e.To == core.NTE {
				exited += n
				continue
			}
			toTBB := p.a.State(e.To).TBB
			if toTBB != nil && toTBB.Trace != t {
				exited += n
			}
		}
	}
	entered = p.states[headID]
	if entered == 0 {
		return 0
	}
	return float64(exited) / float64(entered)
}

// TraceHeat summarizes one trace's share of the profiled execution.
type TraceHeat struct {
	Trace  *trace.Trace
	Enters uint64
	Instrs uint64
}

// HottestTraces returns the n traces with the most attributed instructions,
// descending (ties broken by trace ID for determinism).
func (p *Profile) HottestTraces(n int) []TraceHeat {
	set := p.a.Set()
	if set == nil {
		return nil
	}
	out := make([]TraceHeat, 0, set.Len())
	for _, t := range set.Traces {
		h := TraceHeat{Trace: t}
		for _, tbb := range t.TBBs {
			if id, ok := p.a.StateFor(tbb); ok {
				h.Instrs += p.instrs[id]
			}
		}
		if id, ok := p.a.StateFor(t.Head()); ok {
			h.Enters = p.states[id]
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Instrs != out[j].Instrs {
			return out[i].Instrs > out[j].Instrs
		}
		return out[i].Trace.ID < out[j].Trace.ID
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}
