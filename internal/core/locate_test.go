package core

import (
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
)

// Instruction-granularity mapping. The paper's abstract promises a map
// from executing *instructions* — not just blocks — to their counterparts
// in recorded traces: "a DFA that maps executing instructions to
// instructions or basic blocks in previously recorded traces". The
// block-level states already determine the instruction-level map: within a
// TBB, the instruction at pc corresponds to the same-offset instruction of
// the TBB's block. InstrReplayer follows that map at run time; locateIn
// derives it independently, walking instruction boundaries in the program,
// as the reference the instruction-level tests check against.

// location identifies one instruction instance inside a trace.
type location struct {
	// State is the TBB state covering the instruction.
	State StateID
	// TBB is the trace basic block instance.
	TBB *trace.TBB
	// Index is the instruction's position within the block (0-based).
	Index int
	// Instr is the program instruction.
	Instr *isa.Instr
}

// locateIn maps a program counter inside state s's block to its
// trace-instruction instance. It reports false when s is NTE, when pc lies
// outside the TBB's block, or when pc is not an instruction boundary.
func (a *Automaton) locateIn(prog *isa.Program, s StateID, pc uint64) (location, bool) {
	if s == NTE {
		return location{}, false
	}
	tbb := a.State(s).TBB
	b := tbb.Block
	if pc < b.Head || pc > b.End {
		return location{}, false
	}
	target, ok := prog.At(pc)
	if !ok {
		return location{}, false
	}
	addr := b.Head
	for i := 0; i < b.NumInstrs; i++ {
		if addr == pc {
			return location{State: s, TBB: tbb, Index: i, Instr: target}, true
		}
		in, ok := prog.At(addr)
		if !ok {
			return location{}, false
		}
		addr = in.Next()
	}
	return location{}, false
}

func TestLocateMapsEveryInstructionOfEveryTBB(t *testing.T) {
	p := progs.Figure2(60, 200)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 50})
	a := Build(set)

	for _, tr := range set.Traces {
		for _, tbb := range tr.TBBs {
			id, _ := a.StateFor(tbb)
			// Walk the block's instructions through the program and check
			// each locates to the right index.
			addr := tbb.Block.Head
			for i := 0; i < tbb.Block.NumInstrs; i++ {
				loc, ok := a.locateIn(p, id, addr)
				if !ok {
					t.Fatalf("%v: instruction %d at 0x%x not located", tbb, i, addr)
				}
				if loc.Index != i || loc.TBB != tbb || loc.State != id {
					t.Fatalf("%v: Locate(0x%x) = %+v, want index %d", tbb, addr, loc, i)
				}
				if loc.Instr.Addr != addr {
					t.Fatalf("wrong instruction resolved")
				}
				addr = loc.Instr.Next()
			}
			// One past the block end is out of range.
			if _, ok := a.locateIn(p, id, tbb.Block.End+uint64(tbb.Block.Term.Size)); ok {
				t.Fatalf("%v: located past block end", tbb)
			}
		}
	}
}

func TestLocateRejections(t *testing.T) {
	p := progs.Figure2(60, 200)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 50})
	a := Build(set)
	r := NewReplayer(a, ConfigGlobalLocal)

	// NTE never locates.
	if _, ok := r.a.locateIn(p, r.Cur(), p.Entry); ok {
		t.Error("located while at NTE")
	}

	// Mid-instruction addresses never locate.
	tbb := set.Traces[0].TBBs[0]
	id, _ := a.StateFor(tbb)
	if tbb.Block.NumInstrs > 0 && tbb.Block.Head+1 <= tbb.Block.End {
		if _, ok := a.locateIn(p, id, tbb.Block.Head+1); ok {
			// Head+1 might coincidentally be a boundary only if the first
			// instruction is 1 byte; our programs' first block instrs are
			// multi-byte, but guard anyway.
			if in, valid := p.At(tbb.Block.Head + 1); !valid || in == nil {
				t.Error("located a mid-instruction address")
			}
		}
	}
}

func TestLocateDuringReplay(t *testing.T) {
	// While replaying, the cursor plus the machine PC identify the exact
	// trace instruction about to execute.
	p := progs.Figure2(60, 200)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 50})
	a := Build(set)
	r := NewReplayer(a, ConfigGlobalLocal)

	m := cpu.New(p)
	run := cfg.NewRunner(m, cfg.StarDBT)
	located := 0
	var prev uint64
	for {
		e, ok, err := run.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok || e.To == nil {
			break
		}
		instrs := m.Steps() - prev
		prev = m.Steps()
		st := r.Advance(e.To.Head, instrs)
		if st != NTE {
			loc, ok := r.a.locateIn(p, r.Cur(), e.To.Head)
			if !ok || loc.Index != 0 {
				t.Fatalf("block head did not locate to index 0: %+v ok=%v", loc, ok)
			}
			located++
		}
	}
	if located == 0 {
		t.Fatal("never located during replay")
	}
}
