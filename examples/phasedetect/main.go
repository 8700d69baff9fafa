// Phasedetect implements the trace-based phase detection the paper cites
// as a further application (§5, Wimmer et al.): a program phase is a region
// where the recorded traces are stable (low side-exit ratio); rising exit
// ratios mark phase transitions. The demo program alternates between two
// very different kernels, and the detector finds the boundaries from the
// TEA transition stream alone.
package main

import (
	"context"
	"fmt"
	"log"

	tea "github.com/lsc-tea/tea"
)

// Two phases: a tight arithmetic loop (phase A) and a memory-walking loop
// with a different branch structure (phase B), alternating in long bursts.
const src = `
.entry main
.mem 16384
main:
    movi ebp, 6          ; 6 alternating bursts
burst:
    ; --- phase A: arithmetic kernel ---
    movi ecx, 4000
pa:
    addi eax, 3
    xor  ebx, eax
    shl  ebx, 1
    subi ecx, 1
    jne  pa
    ; --- phase B: strided memory walk whose branch flips with the
    ; address bits, so any single recorded path keeps taking side exits ---
    movi ecx, 4000
    movi esi, 100
pb:
    load edx, [esi+0]
    addi edx, 1
    store [esi+0], edx
    mov  ebx, esi
    shr  ebx, 3
    movi eax, 1
    and  ebx, eax
    cmpi ebx, 0
    jeq  pbz
    addi edx, 5
pbz:
    addi esi, 7
    subi ecx, 1
    jne  pb
    subi ebp, 1
    jgt  burst
    halt
`

func main() {
	prog, err := tea.Assemble("phases", src)
	if err != nil {
		log.Fatal(err)
	}

	// Record traces online, then replay with a phase detector attached.
	a, _, err := tea.RecordOnline(context.Background(), prog, "mret", tea.TraceConfig{HotThreshold: 50}, tea.ConfigGlobalLocal, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	det := tea.NewPhaseDetector(512, 0.15)
	_, stats, err := tea.ProfileReplay(prog, a, tea.ConfigGlobalLocal, det)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("replayed %d instructions at %.1f%% coverage\n\n",
		stats.Instrs, stats.Coverage()*100)
	fmt.Println("detected phases (window = 512 transitions):")
	for i, ph := range det.Phases() {
		fmt.Printf("  %2d. %-8s transitions [%7d, %7d)  exit ratio %.3f\n",
			i+1, ph.Kind, ph.StartEdge, ph.EndEdge, ph.MeanExitRatio)
	}
	fmt.Printf("\nstable fraction of execution: %.1f%%\n", det.StableFraction()*100)
}
