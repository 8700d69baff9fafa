// Linkedlist reproduces the paper's running example (Figures 2 and 3): the
// linked-list scan whose MRET traces T1 and T2 define a DFA, extended with
// the NTE state into the whole-program TEA. It prints the automaton in the
// paper's $$Ti.block notation; pass -dot for Graphviz output.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	tea "github.com/lsc-tea/tea"
)

// Figure 2(a): scan the linked list at edx, counting in eax how many nodes
// hold the value in ecx. The block labels match the paper: begin, header,
// inc, next, end ($$inc and $$next merge into one dynamic block, as the
// paper notes DBTs usually do).
const src = `
.entry main
.mem 16384
main:
    ; Build a 60-node list at address 100; node = [value, next].
    movi edi, 100
    movi ebx, 60
build:
    mov  esi, edi
    addi esi, 2
    store [edi+1], esi
    mov  ecx, ebx
    movi ebp, 3
    and  ecx, ebp
    store [edi+0], ecx
    mov  edi, esi
    subi ebx, 1
    jgt  build
    ; Scan it 150 times looking for the value 1.
    movi ebp, 150
outer:
begin:
    movi eax, 0
    movi ecx, 1
    movi edx, 100
header:
    cmpi edx, 0
    jeq  end
cmpv:
    load ebx, [edx+0]
    cmp  ebx, ecx
    jne  next
inc:
    addi eax, 1
next:
    load edx, [edx+1]
    jmp  header
end:
    subi ebp, 1
    jgt  outer
    halt
`

func main() {
	dot := flag.Bool("dot", false, "emit Graphviz instead of the text summary")
	flag.Parse()

	prog, err := tea.Assemble("figure2", src)
	if err != nil {
		log.Fatal(err)
	}
	set, err := tea.RecordTraces(context.Background(), prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("MRET traces (Figure 2(c)):")
	for _, t := range set.Traces {
		fmt.Printf("  T%d:", t.ID)
		for _, tbb := range t.TBBs {
			fmt.Printf(" %s", tbb.Name())
		}
		fmt.Println()
	}
	fmt.Println()

	a := tea.Build(set)
	if *dot {
		fmt.Print(tea.Dot(a, "figure3"))
		return
	}
	fmt.Println("Whole-program TEA (Figure 3(b)):")
	fmt.Print(tea.Summary(a))

	// Demonstrate the precise mapping the paper highlights: during
	// re-execution, the state tells $$T1.next apart from $$T2.next even
	// though both are the block at `next`.
	stats, err := tea.Replay(context.Background(), prog, a, tea.ConfigGlobalLocal, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplay: coverage %.1f%%, %d trace entries, %d trace-to-trace links\n",
		stats.Coverage()*100, stats.TraceEnters, stats.TraceLinks)
}
