// Package isa defines the synthetic x86-like instruction set used by every
// substrate in this repository.
//
// The instruction set is deliberately x86-flavoured: instructions have
// variable encoded lengths (1-10 bytes), there are condition flags set by
// arithmetic and compare instructions and consumed by conditional branches,
// string operations carry REP prefixes that iterate at run time, and CPUID
// exists solely because Pin splits basic blocks on it (paper §4.1). TEA
// itself only consumes the dynamic program-counter stream and static code
// bytes, so this ISA exercises exactly the code paths the paper's IA-32
// substrate exercised: variable-length size accounting, conditional and
// indirect control flow, and the REP iteration-counting discrepancy between
// StarDBT and Pin.
package isa

import (
	"fmt"
	"strconv"
)

// Reg names one of the eight general-purpose registers. The names mirror
// IA-32 so that examples read like the paper's figures.
type Reg uint8

// General-purpose registers. ESP is the stack pointer used implicitly by
// PUSH, POP, CALL and RET. ESI/EDI/ECX are used implicitly by the REP
// string operations, exactly as on IA-32.
const (
	EAX Reg = iota
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI
	// NoReg marks an unused register operand.
	NoReg Reg = 0xFF
)

// NumRegs is the size of the architectural register file.
const NumRegs = 8

var regNames = [NumRegs]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}

func (r Reg) String() string {
	if r == NoReg {
		return "-"
	}
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// RegByName resolves an assembler register name ("eax", "edi", ...).
func RegByName(name string) (Reg, bool) {
	for i, n := range regNames {
		if n == name {
			return Reg(i), true
		}
	}
	return NoReg, false
}

// Op is an instruction opcode.
type Op uint8

// Opcodes. The set is small but covers every control-flow and sizing shape
// that matters to trace recording: direct and indirect jumps and calls,
// conditional branches, returns, REP-prefixed string ops, and CPUID.
const (
	NOP     Op = iota
	MOV        // Dst <- Src
	MOVI       // Dst <- Imm
	LOAD       // Dst <- mem[Src+Disp]
	STORE      // mem[Dst+Disp] <- Src
	ADD        // Dst <- Dst + Src, sets flags
	ADDI       // Dst <- Dst + Imm, sets flags
	SUB        // Dst <- Dst - Src, sets flags
	SUBI       // Dst <- Dst - Imm, sets flags
	MUL        // Dst <- Dst * Src
	AND        // Dst <- Dst & Src, sets flags
	OR         // Dst <- Dst | Src, sets flags
	XOR        // Dst <- Dst ^ Src, sets flags
	SHL        // Dst <- Dst << (Imm & 63)
	SHR        // Dst <- int64(Dst) >> (Imm & 63)
	CMP        // flags from Dst - Src
	CMPI       // flags from Dst - Imm
	TEST       // flags from Dst & Src
	JMP        // unconditional direct jump to Target
	JCC        // conditional direct jump to Target if Cond holds
	JIND       // indirect jump to address in Src
	CALL       // push return address, jump to Target
	CALLIND    // push return address, jump to address in Src
	RET        // pop return address, jump to it
	PUSH       // push Src
	POP        // pop into Dst
	REPMOVS    // copy ECX words from [ESI] to [EDI]; ECX, ESI, EDI updated
	REPSTOS    // store EAX into ECX words at [EDI]; ECX, EDI updated
	CPUID      // no-op that splits Pin-style blocks (paper §4.1)
	HALT       // stop the machine
	numOps
)

var opNames = [numOps]string{
	"nop", "mov", "movi", "load", "store", "add", "addi", "sub", "subi",
	"mul", "and", "or", "xor", "shl", "shr", "cmp", "cmpi", "test",
	"jmp", "jcc", "jind", "call", "callind", "ret", "push", "pop",
	"repmovs", "repstos", "cpuid", "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// Cond selects the flag predicate of a JCC.
type Cond uint8

// Branch conditions, evaluated against the ZF/SF flags that compare and
// arithmetic instructions produce.
const (
	CondEQ Cond = iota // ZF
	CondNE             // !ZF
	CondLT             // SF
	CondGE             // !SF
	CondLE             // SF || ZF
	CondGT             // !SF && !ZF
	numConds
)

var condNames = [numConds]string{"eq", "ne", "lt", "ge", "le", "gt"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond?%d", uint8(c))
}

// CondByName resolves an assembler condition suffix ("eq", "lt", ...).
func CondByName(name string) (Cond, bool) {
	for i, n := range condNames {
		if n == name {
			return Cond(i), true
		}
	}
	return 0, false
}

// Instr is one decoded instruction. Addr and Size are filled in when the
// instruction is laid out into a Program; Size models the variable-length
// IA-32 encoding and is what the DBT code-replication size accounting sums.
type Instr struct {
	Addr   uint64
	Op     Op
	Cond   Cond
	Dst    Reg
	Src    Reg
	Disp   int32
	Imm    int64
	Target uint64
	Size   uint8
}

// IsBranch reports whether the instruction may transfer control anywhere
// other than the next sequential instruction.
func (i *Instr) IsBranch() bool {
	switch i.Op {
	case JMP, JCC, JIND, CALL, CALLIND, RET, HALT:
		return true
	}
	return false
}

// IsCondBranch reports whether the instruction is a conditional branch, the
// only kind of branch with both a taken and a fall-through edge.
func (i *Instr) IsCondBranch() bool { return i.Op == JCC }

// IsIndirect reports whether the branch target is computed at run time.
func (i *Instr) IsIndirect() bool {
	switch i.Op {
	case JIND, CALLIND, RET:
		return true
	}
	return false
}

// IsCall reports whether the instruction pushes a return address.
func (i *Instr) IsCall() bool { return i.Op == CALL || i.Op == CALLIND }

// IsRep reports whether the instruction carries a REP prefix. StarDBT
// counts a REP instruction once; Pin expands it into a loop and counts each
// iteration (paper §4.1).
func (i *Instr) IsRep() bool { return i.Op == REPMOVS || i.Op == REPSTOS }

// FallsThrough reports whether control may continue at the next sequential
// instruction after this one executes.
func (i *Instr) FallsThrough() bool {
	switch i.Op {
	case JMP, JIND, RET, HALT:
		return false
	}
	return true
}

// Next returns the address of the sequentially following instruction.
func (i *Instr) Next() uint64 { return i.Addr + uint64(i.Size) }

func (i *Instr) String() string { return string(i.appendText(nil)) }

// appendText appends the instruction's assembly text — what String returns
// — to b, formatting with strconv rather than fmt so a disassembly costs no
// allocation per operand.
func (i *Instr) appendText(b []byte) []byte {
	op := i.Op.String()
	switch i.Op {
	case MOV, ADD, SUB, MUL, AND, OR, XOR, CMP, TEST:
		b = append(append(append(b, op...), ' '), i.Dst.String()...)
		return append(append(b, ", "...), i.Src.String()...)
	case MOVI, ADDI, SUBI, CMPI, SHL, SHR:
		b = append(append(append(b, op...), ' '), i.Dst.String()...)
		return strconv.AppendInt(append(b, ", "...), i.Imm, 10)
	case LOAD:
		b = append(append(append(b, "load "...), i.Dst.String()...), ", ["...)
		return append(appendDisp(append(b, i.Src.String()...), i.Disp), ']')
	case STORE:
		b = appendDisp(append(append(b, "store ["...), i.Dst.String()...), i.Disp)
		return append(append(b, "], "...), i.Src.String()...)
	case JMP, CALL:
		return strconv.AppendUint(append(append(b, op...), " 0x"...), i.Target, 16)
	case JCC:
		b = append(append(b, 'j'), i.Cond.String()...)
		return strconv.AppendUint(append(b, " 0x"...), i.Target, 16)
	case JIND, CALLIND:
		return append(append(append(b, op...), ' '), i.Src.String()...)
	case PUSH:
		return append(append(b, "push "...), i.Src.String()...)
	case POP:
		return append(append(b, "pop "...), i.Dst.String()...)
	}
	return append(b, op...)
}

// appendDisp appends a displacement with its sign always shown, as %+d
// formats it.
func appendDisp(b []byte, d int32) []byte {
	if d >= 0 {
		b = append(b, '+')
	}
	return strconv.AppendInt(b, int64(d), 10)
}

// EncodedSize returns the modelled IA-32 encoding length in bytes for the
// instruction. The model is deterministic in the operands so that programs
// have stable layouts: short immediates use sign-extended imm8 forms, wide
// immediates imm32/imm64 forms, and branches always use near (rel32) forms.
func EncodedSize(i *Instr) uint8 {
	switch i.Op {
	case NOP, RET, HALT:
		return 1
	case CPUID, REPMOVS, REPSTOS, PUSH, POP, JIND, CALLIND:
		return 2
	case MOV, ADD, SUB, AND, OR, XOR, CMP, TEST:
		return 2
	case MUL:
		return 3
	case SHL, SHR:
		return 3
	case MOVI:
		if fitsInt32(i.Imm) {
			return 5
		}
		return 10
	case ADDI, SUBI, CMPI:
		if fitsInt8(i.Imm) {
			return 3
		}
		return 6
	case LOAD, STORE:
		switch {
		case i.Disp == 0:
			return 2
		case fitsInt8(int64(i.Disp)):
			return 3
		default:
			return 6
		}
	case JMP, CALL:
		return 5
	case JCC:
		return 6
	}
	return 1
}

func fitsInt8(v int64) bool  { return v >= -128 && v <= 127 }
func fitsInt32(v int64) bool { return v >= -(1<<31) && v < (1<<31) }
