package cfg

import (
	"testing"

	"github.com/lsc-tea/tea/internal/asm"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
)

const loopSrc = `
.entry main
main:
    movi ecx, 3
loop:
    subi ecx, 1
    jne loop
    halt
`

func TestBlockDecoding(t *testing.T) {
	p := asm.MustAssemble("loop", loopSrc)
	c := NewCache(p, StarDBT)
	b, err := c.BlockAt(p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	// Entry block runs from movi through the jne terminator.
	if b.NumInstrs != 3 {
		t.Errorf("entry block has %d instrs, want 3", b.NumInstrs)
	}
	if !b.Term.IsCondBranch() {
		t.Errorf("terminator = %v", b.Term)
	}
	loop, err := c.BlockAt(p.Labels["loop"])
	if err != nil {
		t.Fatal(err)
	}
	if loop.NumInstrs != 2 {
		t.Errorf("loop block has %d instrs, want 2", loop.NumInstrs)
	}
	// Memoized.
	again, _ := c.BlockAt(p.Entry)
	if again != b {
		t.Error("BlockAt did not memoize")
	}
	if c.Len() != 2 {
		t.Errorf("cache Len = %d", c.Len())
	}
}

func TestBlockFallThrough(t *testing.T) {
	p := asm.MustAssemble("ft", loopSrc)
	c := NewCache(p, StarDBT)
	loop, _ := c.BlockAt(p.Labels["loop"])
	ft, ok := loop.FallThrough()
	if !ok {
		t.Fatal("conditional block has no fall-through")
	}
	if in, valid := p.At(ft); !valid || in.Op.String() != "halt" {
		t.Errorf("fall-through at 0x%x is not the halt", ft)
	}
	// Unconditional jmp block has none.
	p2 := asm.MustAssemble("j", "e: jmp e\n")
	c2 := NewCache(p2, StarDBT)
	b2, _ := c2.BlockAt(p2.Entry)
	if _, ok := b2.FallThrough(); ok {
		t.Error("jmp block reported fall-through")
	}
}

func TestBlockAtBadAddress(t *testing.T) {
	p := asm.MustAssemble("x", "e: halt\n")
	c := NewCache(p, StarDBT)
	if _, err := c.BlockAt(12345); err == nil {
		t.Error("BlockAt accepted bad head")
	}
}

func TestPinStyleSplitsOnRepAndCpuid(t *testing.T) {
	src := `
.entry e
e:
    movi ecx, 2
    repmovs
    cpuid
    addi eax, 1
    halt
`
	p := asm.MustAssemble("rep", src)

	sd := NewCache(p, StarDBT)
	b, _ := sd.BlockAt(p.Entry)
	if b.NumInstrs != 5 {
		t.Errorf("StarDBT block = %d instrs, want 5 (no splits)", b.NumInstrs)
	}

	pin := NewCache(p, Pin)
	b1, _ := pin.BlockAt(p.Entry)
	if b1.NumInstrs != 2 || !b1.Term.IsRep() {
		t.Errorf("Pin first block = %d instrs term %v; want split after repmovs", b1.NumInstrs, b1.Term)
	}
	b2, _ := pin.BlockAt(b1.Term.Next())
	if b2.NumInstrs != 1 || b2.Term.Op.String() != "cpuid" {
		t.Errorf("Pin second block = %v", b2)
	}
}

func collectEdges(t *testing.T, src string, style Style) []Edge {
	t.Helper()
	p := asm.MustAssemble("t", src)
	m := cpu.New(p)
	r := NewRunner(m, style)
	var edges []Edge
	for {
		e, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		edges = append(edges, e)
		if e.To == nil {
			break
		}
	}
	// The final edge (To == nil) ends the stream: the next call reports
	// the end through ok == false.
	if _, ok, err := r.Next(); ok || err != nil {
		t.Errorf("Next after the final edge = ok %v, err %v; want the end", ok, err)
	}
	return edges
}

func TestRunnerEdgeStream(t *testing.T) {
	edges := collectEdges(t, loopSrc, StarDBT)
	// pseudo-entry, loop->loop (taken) ×2... exactly:
	// entry edge, then entry-block -> loop (not taken? entry block ends at
	// jne: first two iterations ecx=2,1 -> jne taken back to loop), wait:
	// entry block is movi+subi+jne: after it ecx=2, jne taken to loop.
	// Then loop->loop (ecx=1, taken), loop->halt (ecx=0, not taken),
	// halt-block -> nil.
	if len(edges) != 5 {
		t.Fatalf("got %d edges: %v", len(edges), edges)
	}
	if edges[0].From != nil || edges[0].To == nil {
		t.Error("first edge is not the entry pseudo-edge")
	}
	if edges[1].From == nil || !edges[1].Taken {
		t.Error("second edge should be a taken branch")
	}
	last := edges[len(edges)-1]
	if last.To != nil {
		t.Error("final edge should have To == nil")
	}
}

func TestRunnerTakenFlag(t *testing.T) {
	src := `
.entry e
e:
    movi eax, 1
    cmpi eax, 0
    jeq never
    addi eax, 1
never:
    halt
`
	edges := collectEdges(t, src, StarDBT)
	// Edge after the jeq must be the fall-through (not taken).
	if len(edges) < 3 {
		t.Fatalf("edges: %v", edges)
	}
	if edges[1].Taken {
		t.Error("untaken jeq reported Taken")
	}
}

func TestRunnerPinSplitEdgesNotTaken(t *testing.T) {
	src := `
.entry e
e:
    cpuid
    addi eax, 1
    halt
`
	edges := collectEdges(t, src, Pin)
	// Edge out of the cpuid-terminated block is a pure fall-through.
	if edges[1].Taken {
		t.Error("Pin split edge reported Taken")
	}
	if edges[1].From.Term.IsBranch() {
		t.Error("split block terminator should not be a branch")
	}
}

func TestRunnerCountsMatchMachine(t *testing.T) {
	p := asm.MustAssemble("c", loopSrc)
	m := cpu.New(p)
	r := NewRunner(m, StarDBT)
	for {
		_, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	// Full program: movi + (subi+jne)*3 + halt = 8 steps.
	if m.Steps() != 8 {
		t.Errorf("Steps = %d, want 8", m.Steps())
	}
}

func TestStyleString(t *testing.T) {
	if StarDBT.String() != "stardbt" || Pin.String() != "pin" {
		t.Error("Style strings wrong")
	}
}

func TestOverlappingBlocks(t *testing.T) {
	// Jumping into the middle of a block yields a second, overlapping block
	// — normal in DBTs.
	src := `
.entry e
e:
    movi eax, 5
mid:
    subi eax, 1
    jgt mid
    halt
`
	p := asm.MustAssemble("o", src)
	c := NewCache(p, StarDBT)
	whole, _ := c.BlockAt(p.Entry)
	mid, _ := c.BlockAt(p.Labels["mid"])
	if whole.End != mid.End {
		t.Error("overlapping blocks should share the terminator")
	}
	if whole.NumInstrs != mid.NumInstrs+1 {
		t.Errorf("whole=%d mid=%d", whole.NumInstrs, mid.NumInstrs)
	}
}

func TestStylesAgreeOnExecution(t *testing.T) {
	// Both block disciplines drive the same machine semantics: identical
	// instruction counts, identical final architectural state.
	src := `
.entry e
e:
    movi ebp, 20
l:
    movi ecx, 4
    movi esi, 100
    movi edi, 200
    repmovs
    cpuid
    addi eax, 1
    subi ebp, 1
    jgt l
    halt
`
	p := asm.MustAssemble("agree", src)
	run := func(style Style) (uint64, int64) {
		m := cpu.New(p)
		r := NewRunner(m, style)
		for {
			_, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		return m.Steps(), m.Reg(0) // eax
	}
	s1, a1 := run(StarDBT)
	s2, a2 := run(Pin)
	if s1 != s2 || a1 != a2 {
		t.Errorf("styles diverge: steps %d/%d eax %d/%d", s1, s2, a1, a2)
	}
}

func TestEveryStarDBTBoundaryIsAPinBoundary(t *testing.T) {
	// Pin splits strictly more than StarDBT: every StarDBT block head that
	// execution visits is also a Pin block head.
	p := asm.MustAssemble("b", `
.entry e
e:
    movi ebp, 10
l:
    movi ecx, 3
    movi esi, 50
    movi edi, 90
    repmovs
    addi eax, 2
    cpuid
    subi ebp, 1
    jgt l
    halt
`)
	heads := func(style Style) map[uint64]bool {
		m := cpu.New(p)
		r := NewRunner(m, style)
		out := make(map[uint64]bool)
		for {
			e, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok || e.To == nil {
				break
			}
			out[e.To.Head] = true
		}
		return out
	}
	sd := heads(StarDBT)
	pin := heads(Pin)
	for h := range sd {
		if !pin[h] {
			t.Errorf("StarDBT head 0x%x not a Pin head", h)
		}
	}
	if len(pin) <= len(sd) {
		t.Error("Pin should discover strictly more heads on REP/CPUID code")
	}
}

func TestMaxBlockLenRespected(t *testing.T) {
	// A long straight-line run is capped at MaxBlockLen.
	b := isa.NewBuilder("long")
	b.Label("e")
	for i := 0; i < MaxBlockLen+40; i++ {
		b.Emit(isa.Instr{Op: isa.NOP})
	}
	b.Emit(isa.Instr{Op: isa.HALT})
	p, err := b.Build("e", 64)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(p, StarDBT)
	blk, err := c.BlockAt(p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if blk.NumInstrs != MaxBlockLen {
		t.Errorf("block has %d instrs, cap is %d", blk.NumInstrs, MaxBlockLen)
	}
}
