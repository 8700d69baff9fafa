package isa_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/workload"
)

// fmtInstr is the fmt-based instruction text String must reproduce byte
// for byte.
func fmtInstr(i *isa.Instr) string {
	switch i.Op {
	case isa.NOP, isa.CPUID, isa.HALT, isa.RET, isa.REPMOVS, isa.REPSTOS:
		return i.Op.String()
	case isa.MOV, isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR, isa.CMP, isa.TEST:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Dst, i.Src)
	case isa.MOVI, isa.ADDI, isa.SUBI, isa.CMPI, isa.SHL, isa.SHR:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Dst, i.Imm)
	case isa.LOAD:
		return fmt.Sprintf("load %s, [%s%+d]", i.Dst, i.Src, i.Disp)
	case isa.STORE:
		return fmt.Sprintf("store [%s%+d], %s", i.Dst, i.Disp, i.Src)
	case isa.JMP, isa.CALL:
		return fmt.Sprintf("%s 0x%x", i.Op, i.Target)
	case isa.JCC:
		return fmt.Sprintf("j%s 0x%x", i.Cond, i.Target)
	case isa.JIND, isa.CALLIND:
		return fmt.Sprintf("%s %s", i.Op, i.Src)
	case isa.PUSH:
		return fmt.Sprintf("push %s", i.Src)
	case isa.POP:
		return fmt.Sprintf("pop %s", i.Dst)
	}
	return i.Op.String()
}

// TestInstrTextMatchesFmt holds String and Disassemble to the fmt-based
// text: every instruction of every generated benchmark program, the whole
// text of each disassembled at once, and hand-built operands at the edges
// (zero, negative and extreme displacements and immediates, addresses
// wider than eight hex digits, unknown registers, opcodes and conditions).
func TestInstrTextMatchesFmt(t *testing.T) {
	for _, spec := range workload.Benchmarks() {
		p := workload.Program(spec)
		var want strings.Builder
		for i := 0; i < p.Len(); i++ {
			in := p.Instr(i)
			if got, w := in.String(), fmtInstr(in); got != w {
				t.Fatalf("%s: instruction %d: String() = %q, fmt gives %q", p.Name, i, got, w)
			}
			if sym, ok := p.SymbolFor(in.Addr); ok {
				fmt.Fprintf(&want, "%s:\n", sym)
			}
			fmt.Fprintf(&want, "  0x%08x  %s\n", in.Addr, fmtInstr(in))
		}
		if got := p.Disassemble(0, ^uint64(0)); got != want.String() {
			t.Fatalf("%s: Disassemble of the whole text differs from the fmt rendering", p.Name)
		}
	}
	var edge []isa.Instr
	for op := isa.NOP; op <= isa.HALT+1; op++ {
		for _, v := range []struct {
			disp int32
			imm  int64
			tgt  uint64
			cond isa.Cond
			reg  isa.Reg
		}{
			{0, 0, 0, isa.CondEQ, isa.EAX},
			{-1, -1, 0x10, isa.CondGT, isa.EDI},
			{1 << 30, 1 << 62, 0xffffffffff, isa.Cond(9), isa.NoReg},
			{-1 << 31, -1 << 63, ^uint64(0), isa.CondNE, isa.Reg(11)},
		} {
			edge = append(edge, isa.Instr{Op: op, Cond: v.cond, Dst: v.reg, Src: isa.ESI, Disp: v.disp, Imm: v.imm, Target: v.tgt})
		}
	}
	for i := range edge {
		if got, w := edge[i].String(), fmtInstr(&edge[i]); got != w {
			t.Fatalf("%+v: String() = %q, fmt gives %q", edge[i], got, w)
		}
	}
}
