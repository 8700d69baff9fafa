// Memcopy walks through the paper's §2 motivation (Figure 1): the
// optimized word-copy loop is recorded as a trace; to unroll it with
// accurate profile data, the trace is *duplicated* in the TEA — no code is
// generated — and the replayed profile labels each iteration parity
// separately, giving the unroller the specialized counts it needs.
package main

import (
	"context"
	"fmt"
	"log"

	tea "github.com/lsc-tea/tea"
)

// Figure 1(a): copy 100 words from [esi] to [edi].
const src = `
.entry main
.mem 8192
main:
    movi ebp, 120
round:
    movi ecx, 100
    movi esi, 1000
    movi edi, 4000
loop:
    load  eax, [esi+0]
    store [edi+0], eax
    addi  esi, 1
    addi  edi, 1
    subi  ecx, 1
    jne   loop
    subi ebp, 1
    jgt  round
    halt
`

func main() {
	prog, err := tea.Assemble("figure1", src)
	if err != nil {
		log.Fatal(err)
	}

	// Record the hot copy loop (Figure 1(b)).
	set, err := tea.RecordTraces(context.Background(), prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
	if err != nil {
		log.Fatal(err)
	}
	loop, ok := set.ByEntry(prog.Labels["loop"])
	if !ok {
		log.Fatal("no trace recorded at the copy loop")
	}
	fmt.Printf("recorded %v covering the copy loop\n", loop)

	// The optimizer wants to unroll by 2 (Figure 1(c)) but needs fresh
	// profile for the new instruction copies. Unrolled code has no
	// counterpart in the executable, so the DFA cannot replay it...
	// ...but the *duplicated* trace (Figure 1(d)) can be replayed as-is.
	dupSet, dup, err := tea.DuplicateTrace(set, int32(loop.ID))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("duplicated trace: %d TBBs (was %d); no code generated\n",
		dup.Len(), loop.Len())

	prof, stats, err := tea.ProfileReplay(prog, tea.Build(dupSet), tea.ConfigGlobalLocal, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-profiled the unmodified program: coverage %.1f%%\n\n", stats.Coverage()*100)

	// Per-copy counts: instructions (C)/(D) of the duplicate stand for
	// instructions (5)/(6) of the unrolled loop.
	cp, err := tea.ProfileByCopy(prof, dup)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("profile, labelled per copy (the unroller's specialized counts):")
	for _, c := range cp.PerTBB {
		fmt.Printf("  copy %d  %-22s entered %8d  instrs %9d\n",
			c.Copy, c.Name, c.Enters, c.Instrs)
	}
	fmt.Printf("\ncopy totals: even iterations %d, odd iterations %d\n",
		cp.Enters[0], cp.Enters[1])
}
