package optim

import (
	"github.com/lsc-tea/tea/internal/profile"
	"github.com/lsc-tea/tea/internal/trace"
)

// Prune implements the consumer side of the paper's third use case —
// "storing trace shape and profiling information for reuse in future
// executions": given a trace set and the profile of a previous run, it
// returns a new set containing only the traces whose heads executed at
// least minEnters times. A later run loads the pruned, smaller TEA and
// pays less global-container pressure for the same hot-code coverage.
func Prune(s *trace.Set, p *profile.Profile, minEnters uint64) (*trace.Set, error) {
	a := p.Automaton()
	out := trace.NewSet(s.Strategy, s)
	for _, t := range s.Traces {
		id, ok := a.StateFor(t.Head())
		if !ok || p.StateCount(id) < minEnters {
			continue
		}
		if _, err := copyTrace(out, t); err != nil {
			return nil, err
		}
	}
	return out, nil
}
