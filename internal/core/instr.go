package core

import (
	"encoding/binary"
	"fmt"

	"github.com/lsc-tea/tea/internal/isa"
)

// Instruction-granularity TEA. The paper's technique "builds a DFA that
// represents basic blocks (or instructions) from traces" (§1): this file
// is the *instructions* variant. Logically the instruction-level automaton
// has one state per instruction instance in every TBB; transitions within
// a block are the sequential PC successions and the terminator's
// transitions are the block-level ones. Because the in-block structure is
// fully determined by the program, the runtime representation wraps the
// block-level automaton with an (TBB, index) cursor rather than
// materializing the states — but the wire format (EncodeInstrLevel) stores
// every instruction state explicitly, which is what a system without block
// discovery would have to ship, and is the honest size ablation against
// the block-level format.

// InstrStats counts an instruction-level replay.
type InstrStats struct {
	// Instrs and TraceInstrs define instruction-level coverage.
	Instrs      uint64
	TraceInstrs uint64
	// SeqHits counts in-block sequential transitions (nearly free);
	// Boundary counts block-boundary transitions that consulted the
	// block-level transition function; ColdSeq counts sequential cold-code
	// instructions that skipped the lookup entirely.
	SeqHits  uint64
	Boundary uint64
	ColdSeq  uint64
}

// Coverage returns the fraction of instructions executed inside traces.
func (s *InstrStats) Coverage() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.TraceInstrs) / float64(s.Instrs)
}

// InstrReplayer walks the instruction-level TEA along a per-instruction PC
// stream (cpu.Machine.PC before every Step).
type InstrReplayer struct {
	rep  *Replayer
	prog *isa.Program

	idx      int    // instruction index within the current TBB
	expect   uint64 // next sequential address inside the block
	prevFall uint64 // fall-through address of the previous cold instruction

	stats InstrStats
}

// NewInstrReplayer wraps the block-level automaton for per-instruction
// replay on prog.
func NewInstrReplayer(a *Automaton, lc LookupConfig, prog *isa.Program) *InstrReplayer {
	return &InstrReplayer{rep: NewReplayer(a, lc), prog: prog, prevFall: ^uint64(0)}
}

// Stats returns the instruction-level counters.
func (r *InstrReplayer) Stats() *InstrStats { return &r.stats }

// Replayer exposes the underlying block-level cursor.
func (r *InstrReplayer) Replayer() *Replayer { return r.rep }

// Cur returns the current instruction-level location: the block state and
// the instruction index within it (index is meaningless at NTE).
func (r *InstrReplayer) Cur() (StateID, int) { return r.rep.Cur(), r.idx }

// StepInstr consumes the PC of the instruction about to execute and
// reports whether it is covered by a trace.
func (r *InstrReplayer) StepInstr(pc uint64) bool {
	r.stats.Instrs++
	if cur := r.rep.Cur(); cur != NTE {
		tbb := r.rep.a.State(cur).TBB
		if r.idx+1 < tbb.Block.NumInstrs && pc == r.expect {
			// Sequential in-block transition: the next instruction state.
			r.idx++
			if in, ok := r.prog.At(pc); ok {
				r.expect = in.Next()
			}
			r.stats.SeqHits++
			r.stats.TraceInstrs++
			return true
		}
		// Terminator fired (or the stream diverged): block-level boundary.
		return r.boundary(pc)
	}
	// At NTE, sequential fall-through needs no lookup; only targets of
	// control transfers can enter a trace (trace entries are branch
	// targets).
	if pc == r.prevFall {
		r.stats.ColdSeq++
		if in, ok := r.prog.At(pc); ok && !in.IsBranch() {
			r.prevFall = in.Next()
		} else {
			r.prevFall = ^uint64(0)
		}
		return false
	}
	return r.boundary(pc)
}

// boundary performs a block-level transition at pc.
func (r *InstrReplayer) boundary(pc uint64) bool {
	r.stats.Boundary++
	st := r.rep.Advance(pc, 0)
	if st == NTE {
		if in, ok := r.prog.At(pc); ok && !in.IsBranch() {
			r.prevFall = in.Next()
		} else {
			r.prevFall = ^uint64(0)
		}
		return false
	}
	tbb := r.rep.a.State(st).TBB
	r.idx = 0
	if in, ok := r.prog.At(tbb.Block.Head); ok {
		r.expect = in.Next()
	}
	r.stats.TraceInstrs++
	return true
}

const instrMagic = "TEI1"

// EncodeInstrLevel serializes the instruction-level automaton: every
// instruction instance of every TBB becomes an explicit state record. This
// is what a runtime without dynamic block discovery would store, and it is
// deliberately larger than Encode's block-level format — the ablation that
// justifies the paper's (and this library's) block-granularity default.
//
// Layout: magic, trace count; per trace: TBB count; per TBB: instruction
// count, then per instruction an address delta and a profile-counter slot
// (instruction granularity exists precisely so each instruction instance
// can carry its own profile, §2); then per TBB the terminator's transition
// count and (label delta, target state) pairs, exactly as the block-level
// format stores them. The counter slots are written as zeros: the format
// is measured (InstrLevelSize), not loaded.
func EncodeInstrLevel(a *Automaton, prog *isa.Program) ([]byte, error) {
	set := a.set
	out := make([]byte, 0, 64)
	out = append(out, instrMagic...)
	out = binary.AppendUvarint(out, uint64(len(set.Traces)))

	canon := make(map[interface{}]uint64)
	next := uint64(1)
	for _, t := range set.Traces {
		for _, tbb := range t.TBBs {
			canon[tbb] = next
			next += uint64(tbb.Block.NumInstrs)
		}
	}

	prevAddr := uint64(0)
	for _, t := range set.Traces {
		out = binary.AppendUvarint(out, uint64(len(t.TBBs)))
		for _, tbb := range t.TBBs {
			out = binary.AppendUvarint(out, uint64(tbb.Block.NumInstrs))
			addr := tbb.Block.Head
			for i := 0; i < tbb.Block.NumInstrs; i++ {
				in, ok := prog.At(addr)
				if !ok {
					return nil, fmt.Errorf("core: no instruction at 0x%x in %v", addr, tbb)
				}
				out = binary.AppendVarint(out, int64(addr)-int64(prevAddr))
				out = binary.AppendUvarint(out, 0)
				prevAddr = addr
				addr = in.Next()
			}
			out = binary.AppendUvarint(out, uint64(len(tbb.Succs)))
			for _, label := range tbb.SuccLabels() {
				out = binary.AppendVarint(out, int64(label)-int64(tbb.Block.Head))
				out = binary.AppendUvarint(out, canon[tbb.Succs[label]])
			}
		}
	}
	return out, nil
}

// InstrLevelSize returns the serialized size of the instruction-level
// automaton in bytes.
func InstrLevelSize(a *Automaton, prog *isa.Program) (uint64, error) {
	data, err := EncodeInstrLevel(a, prog)
	if err != nil {
		return 0, err
	}
	return uint64(len(data)), nil
}
