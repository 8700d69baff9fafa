// Crossenv demonstrates the paper's headline use case: traces are built in
// one environment (the StarDBT-like translator) and replayed in another
// (the Pin-like instrumentation engine) on the unmodified executable, with
// the serialized TEA as the interchange format. The replaying side never
// sees any trace code — only state.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	tea "github.com/lsc-tea/tea"
)

func main() {
	// A realistic workload: the synthetic 181.mcf (pointer-chasing loops).
	prog, err := tea.Benchmark("mcf", 1_000_000)
	if err != nil {
		log.Fatal(err)
	}

	// --- System A: the DBT records traces while translating. ---
	set, traceBytes, dbtCov, err := tea.RunDBT(prog, "mret", tea.TraceConfig{HotThreshold: 12})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[DBT]  recorded %d traces (%d TBBs), %d bytes of replicated code, coverage %.1f%%\n",
		set.Len(), set.NumTBBs(), traceBytes, dbtCov*100)

	// Serialize the TEA to a file, as the paper's pintool loads it.
	a := tea.Build(set)
	data, err := tea.Encode(a)
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "mcf.tea")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[DBT]  wrote %s (%d bytes — %.0f%% smaller than the trace code)\n",
		path, len(data), (1-float64(len(data))/float64(traceBytes))*100)

	// --- System B: load the TEA under the Pin-like engine and replay. ---
	loaded, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	b, err := tea.Decode(loaded, prog)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := tea.Replay(context.Background(), prog, b, tea.ConfigGlobalLocal, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[Pin]  replayed: coverage %.1f%% (DBT saw %.1f%%)\n",
		stats.Coverage()*100, dbtCov*100)
	fmt.Printf("[Pin]  transition function: %d in-trace, %d local hits, %d global lookups\n",
		stats.InTraceHits, stats.LocalHits, stats.GlobalLookups)

	// As the paper observes (Table 2), the replaying run executes no cold
	// warm-up, so its coverage is at least the recording run's.
	if stats.Coverage()+0.01 < dbtCov {
		fmt.Println("warning: replay coverage below recording coverage")
	}
	_ = os.Remove(path)
}
