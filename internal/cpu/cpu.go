// Package cpu implements a functional interpreter for the synthetic ISA.
//
// The interpreter stands in for the real IA-32 hardware of the paper: its
// only job is to generate the dynamic instruction stream (the sequence of
// program counters) that the DBT, the Pin-like instrumentation engine and
// the TEA replayer consume. Execution is fully deterministic in the program
// and its initial data.
//
// Two dynamic instruction counts are maintained, reflecting the counting
// discrepancy the paper calls out in §4.1: Steps counts every executed
// instruction once, REP-prefixed or not (StarDBT's convention), while
// PinSteps counts every REP iteration, Pin's per-iteration convention
// (Steps - #rep + ΣIterations).
package cpu

import (
	"errors"
	"fmt"

	"github.com/lsc-tea/tea/internal/isa"
)

// ErrFuel is returned by Run when the step budget is exhausted before the
// program halts.
var ErrFuel = errors.New("cpu: step budget exhausted")

// Fault describes a machine fault: a wild jump, stack over/underflow, or an
// undefined opcode.
type Fault struct {
	PC  uint64
	Msg string
}

func (f *Fault) Error() string { return fmt.Sprintf("cpu: fault at 0x%x: %s", f.PC, f.Msg) }

// MemEvent is one data-memory access performed by an instruction, reported
// to an attached Observer. Addresses are the wrapped word addresses
// actually touched.
type MemEvent struct {
	Addr  int64
	Write bool
}

// Observer receives a callback after every retired instruction: the
// instruction, the data accesses it performed, and whether a conditional
// branch was taken. REP instructions report at most MaxObservedRepEvents
// accesses (long REPs hit the same cache lines repeatedly anyway).
// Observers exist for timing simulators (internal/ucsim); execution
// semantics never depend on them.
type Observer interface {
	Retire(in *isa.Instr, mem []MemEvent, taken bool)
}

// MaxObservedRepEvents caps the per-REP memory events delivered to an
// Observer, bounding observer cost for huge REP counts.
const MaxObservedRepEvents = 64

// Machine is a single-core machine executing one Program.
type Machine struct {
	prog *isa.Program

	pc     uint64
	regs   [isa.NumRegs]int64
	zf, sf bool
	mem    []int64
	halted bool

	steps    uint64
	repOps   uint64
	repIters uint64

	obs    Observer
	events []MemEvent
}

// New creates a Machine for the program and resets it.
func New(p *isa.Program) *Machine {
	m := &Machine{prog: p}
	m.Reset()
	return m
}

// Reset rewinds the machine to the program entry with freshly initialized
// memory and an empty stack at the top of data memory.
func (m *Machine) Reset() {
	m.pc = m.prog.Entry
	m.regs = [isa.NumRegs]int64{}
	m.zf, m.sf = false, false
	if m.mem == nil || len(m.mem) != m.prog.MemWords {
		m.mem = make([]int64, m.prog.MemWords)
	} else {
		for i := range m.mem {
			m.mem[i] = 0
		}
	}
	for a, v := range m.prog.InitData {
		m.mem[m.wrap(a)] = v
	}
	m.regs[isa.ESP] = int64(m.prog.MemWords)
	m.halted = false
	m.steps, m.repOps, m.repIters = 0, 0, 0
}

// Program returns the program the machine executes.
func (m *Machine) Program() *isa.Program { return m.prog }

// PC returns the address of the next instruction to execute.
func (m *Machine) PC() uint64 { return m.pc }

// Halted reports whether the machine has executed HALT.
func (m *Machine) Halted() bool { return m.halted }

// Steps returns the dynamic instruction count, each REP op counted once
// (StarDBT's convention).
func (m *Machine) Steps() uint64 { return m.steps }

// RepOps returns how many REP-prefixed instructions executed.
func (m *Machine) RepOps() uint64 { return m.repOps }

// PinSteps returns the dynamic instruction count under Pin's convention:
// every REP iteration counts as one instruction (§4.1).
func (m *Machine) PinSteps() uint64 { return m.steps - m.repOps + m.repIters }

// StepMark turns a monotonically increasing instruction counter into
// per-edge deltas: an edge producer calls Delta once per block boundary
// with the current total (Steps or PinSteps, whichever convention it
// reports) and receives the instructions retired since the previous
// boundary. The zero value marks the start of execution.
type StepMark uint64

// Delta returns total minus the mark and advances the mark to total.
func (k *StepMark) Delta(total uint64) uint64 {
	d := total - uint64(*k)
	*k = StepMark(total)
	return d
}

// SetObserver attaches (or, with nil, detaches) a per-instruction observer.
func (m *Machine) SetObserver(o Observer) { m.obs = o }

// note records a data access for the attached observer.
func (m *Machine) note(addr int64, write bool) {
	if m.obs != nil {
		m.events = append(m.events, MemEvent{Addr: addr, Write: write})
	}
}

// Reg returns the value of register r.
func (m *Machine) Reg(r isa.Reg) int64 { return m.regs[r] }

// Mem returns the data word at the (wrapped) address.
func (m *Machine) Mem(addr int64) int64 { return m.mem[m.wrap(addr)] }

// wrap maps a data address into the machine's segmented data memory. The
// data segment wraps; only the stack pointer is range-checked, so wild data
// pointers cannot take the machine down mid-experiment.
func (m *Machine) wrap(addr int64) int {
	n := int64(len(m.mem))
	a := addr % n
	if a < 0 {
		a += n
	}
	return int(a)
}

// Step executes exactly one instruction and returns it. REP-prefixed
// instructions execute all their iterations within one Step. After HALT the
// machine stays halted and Step returns a fault.
func (m *Machine) Step() (*isa.Instr, error) {
	if m.halted {
		return nil, &Fault{m.pc, "machine is halted"}
	}
	in, ok := m.prog.At(m.pc)
	if !ok {
		return nil, &Fault{m.pc, "no instruction at PC"}
	}
	m.steps++
	next := in.Next()
	taken := false
	if m.obs != nil {
		m.events = m.events[:0]
	}

	switch in.Op {
	case isa.NOP, isa.CPUID:
		// CPUID is architecturally a no-op here; it exists so the Pin-style
		// block builder can split blocks on it (§4.1).
	case isa.MOV:
		m.regs[in.Dst] = m.regs[in.Src]
	case isa.MOVI:
		m.regs[in.Dst] = in.Imm
	case isa.LOAD:
		a := m.wrap(m.regs[in.Src] + int64(in.Disp))
		m.note(int64(a), false)
		m.regs[in.Dst] = m.mem[a]
	case isa.STORE:
		a := m.wrap(m.regs[in.Dst] + int64(in.Disp))
		m.note(int64(a), true)
		m.mem[a] = m.regs[in.Src]
	case isa.ADD:
		m.setFlags(m.alu(in.Dst, m.regs[in.Dst]+m.regs[in.Src]))
	case isa.ADDI:
		m.setFlags(m.alu(in.Dst, m.regs[in.Dst]+in.Imm))
	case isa.SUB:
		m.setFlags(m.alu(in.Dst, m.regs[in.Dst]-m.regs[in.Src]))
	case isa.SUBI:
		m.setFlags(m.alu(in.Dst, m.regs[in.Dst]-in.Imm))
	case isa.MUL:
		m.regs[in.Dst] *= m.regs[in.Src]
	case isa.AND:
		m.setFlags(m.alu(in.Dst, m.regs[in.Dst]&m.regs[in.Src]))
	case isa.OR:
		m.setFlags(m.alu(in.Dst, m.regs[in.Dst]|m.regs[in.Src]))
	case isa.XOR:
		m.setFlags(m.alu(in.Dst, m.regs[in.Dst]^m.regs[in.Src]))
	case isa.SHL:
		m.regs[in.Dst] <<= uint64(in.Imm) & 63
	case isa.SHR:
		m.regs[in.Dst] >>= uint64(in.Imm) & 63
	case isa.CMP:
		m.setFlags(m.regs[in.Dst] - m.regs[in.Src])
	case isa.CMPI:
		m.setFlags(m.regs[in.Dst] - in.Imm)
	case isa.TEST:
		m.setFlags(m.regs[in.Dst] & m.regs[in.Src])
	case isa.JMP:
		next = in.Target
	case isa.JCC:
		if m.cond(in.Cond) {
			next = in.Target
			taken = true
		}
	case isa.JIND:
		next = uint64(m.regs[in.Src])
	case isa.CALL:
		if err := m.push(int64(in.Next())); err != nil {
			return in, err
		}
		next = in.Target
	case isa.CALLIND:
		if err := m.push(int64(in.Next())); err != nil {
			return in, err
		}
		next = uint64(m.regs[in.Src])
	case isa.RET:
		v, err := m.pop()
		if err != nil {
			return in, err
		}
		next = uint64(v)
	case isa.PUSH:
		if err := m.push(m.regs[in.Src]); err != nil {
			return in, err
		}
	case isa.POP:
		v, err := m.pop()
		if err != nil {
			return in, err
		}
		m.regs[in.Dst] = v
	case isa.REPMOVS:
		n := m.repCount()
		src, dst := m.regs[isa.ESI], m.regs[isa.EDI]
		for i := int64(0); i < n; i++ {
			if i < MaxObservedRepEvents/2 {
				m.note(int64(m.wrap(src+i)), false)
				m.note(int64(m.wrap(dst+i)), true)
			}
			m.mem[m.wrap(dst+i)] = m.mem[m.wrap(src+i)]
		}
		m.regs[isa.ESI] += n
		m.regs[isa.EDI] += n
		m.regs[isa.ECX] = 0
		m.repOps++
		m.repIters += uint64(n)
	case isa.REPSTOS:
		n := m.repCount()
		dst := m.regs[isa.EDI]
		for i := int64(0); i < n; i++ {
			if i < MaxObservedRepEvents {
				m.note(int64(m.wrap(dst+i)), true)
			}
			m.mem[m.wrap(dst+i)] = m.regs[isa.EAX]
		}
		m.regs[isa.EDI] += n
		m.regs[isa.ECX] = 0
		m.repOps++
		m.repIters += uint64(n)
	case isa.HALT:
		m.halted = true
		if m.obs != nil {
			m.obs.Retire(in, m.events, false)
		}
		return in, nil
	default:
		return in, &Fault{m.pc, fmt.Sprintf("undefined opcode %s", in.Op)}
	}

	if in.IsBranch() || !in.FallsThrough() {
		if _, ok := m.prog.At(next); !ok {
			return in, &Fault{in.Addr, fmt.Sprintf("wild jump to 0x%x", next)}
		}
	}
	m.pc = next
	if m.obs != nil {
		m.obs.Retire(in, m.events, taken)
	}
	return in, nil
}

// repCount bounds a REP operation's iteration count by the size of data
// memory, mirroring how a segment limit would bound a runaway REP.
func (m *Machine) repCount() int64 {
	n := m.regs[isa.ECX]
	if n < 0 {
		n = 0
	}
	if max := int64(len(m.mem)); n > max {
		n = max
	}
	return n
}

func (m *Machine) alu(dst isa.Reg, v int64) int64 {
	m.regs[dst] = v
	return v
}

func (m *Machine) setFlags(v int64) {
	m.zf = v == 0
	m.sf = v < 0
}

func (m *Machine) cond(c isa.Cond) bool {
	switch c {
	case isa.CondEQ:
		return m.zf
	case isa.CondNE:
		return !m.zf
	case isa.CondLT:
		return m.sf
	case isa.CondGE:
		return !m.sf
	case isa.CondLE:
		return m.sf || m.zf
	case isa.CondGT:
		return !m.sf && !m.zf
	}
	return false
}

func (m *Machine) push(v int64) error {
	sp := m.regs[isa.ESP] - 1
	if sp < 0 {
		return &Fault{m.pc, "stack overflow"}
	}
	m.regs[isa.ESP] = sp
	m.note(sp, true)
	m.mem[sp] = v
	return nil
}

func (m *Machine) pop() (int64, error) {
	sp := m.regs[isa.ESP]
	if sp < 0 || sp >= int64(len(m.mem)) {
		return 0, &Fault{m.pc, "stack underflow"}
	}
	m.regs[isa.ESP] = sp + 1
	m.note(sp, false)
	return m.mem[sp], nil
}

// Run executes until HALT or until maxSteps instructions have retired,
// whichever comes first. It returns ErrFuel if the budget ran out.
func (m *Machine) Run(maxSteps uint64) error {
	for !m.halted {
		if m.steps >= maxSteps {
			return ErrFuel
		}
		if _, err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}
