// Tail accounting for the compiled flat automaton through the facade. The
// executors' equivalence to the reference Replayer is one table and one
// fuzz target, in internal/pipeline/oracle_test.go.
package tea_test

import (
	"context"
	"testing"

	tea "github.com/lsc-tea/tea"
	"github.com/lsc-tea/tea/internal/core"
)

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
