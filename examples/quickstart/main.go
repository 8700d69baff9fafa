// Quickstart: assemble a small program, record hot traces, build the TEA
// (Algorithm 1), serialize it, and replay it against the unmodified
// program — the library's core loop in ~60 lines.
package main

import (
	"context"
	"fmt"
	"log"

	tea "github.com/lsc-tea/tea"
)

const src = `
; Sum the words of an array, 80 rounds, so the loop becomes hot.
.entry main
.mem 4096
main:
    movi ebp, 80
round:
    movi eax, 0
    movi esi, 100
    movi ecx, 64
loop:
    load  ebx, [esi+0]
    add   eax, ebx
    addi  esi, 1
    subi  ecx, 1
    jne   loop
    subi ebp, 1
    jgt  round
    halt
`

func main() {
	prog, err := tea.Assemble("sum", src)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Record traces with MRET (the Dynamo/NET strategy).
	set, err := tea.RecordTraces(context.Background(), prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d trace(s), %d TBBs\n", set.Len(), set.NumTBBs())

	// 2. Build the automaton (the paper's Algorithm 1).
	a := tea.Build(set)
	fmt.Printf("TEA: %d states (incl. NTE)\n", a.NumStates())

	// 3. Compare representations: replicated code vs the automaton.
	fmt.Printf("code replication: %4d bytes\n", tea.CodeBytes(set))
	fmt.Printf("TEA serialized:   %4d bytes (%.0f%% savings)\n",
		tea.EncodedSize(a),
		(1-float64(tea.EncodedSize(a))/float64(tea.CodeBytes(set)))*100)

	// 4. Round-trip through the wire format, as a different system would.
	data, err := tea.Encode(a)
	if err != nil {
		log.Fatal(err)
	}
	restored, err := tea.Decode(data, prog)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Replay against a fresh execution of the unmodified program.
	stats, err := tea.Replay(context.Background(), prog, restored, tea.ConfigGlobalLocal, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replay coverage:  %.1f%% of %d instructions\n",
		stats.Coverage()*100, stats.Instrs)
	fmt.Printf("trace entries: %d, in-trace transitions: %d, global lookups: %d\n",
		stats.TraceEnters, stats.InTraceHits, stats.GlobalLookups)
}
