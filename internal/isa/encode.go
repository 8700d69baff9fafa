package isa

import "fmt"

// Byte-level instruction encoding. The interpreter executes decoded
// instructions directly, but the DBT's code cache stores real bytes — the
// code-replication costs of Table 1 are sums of these encodings — and
// round-tripping through them keeps the size model honest: EncodeInstr's
// output length is exactly EncodedSize.
//
// The encoding is a simple tag-structured format, not IA-32 machine code:
//
//	byte 0: opcode
//	byte 1 (when present): operand byte — Dst in the low nibble, Src in
//	        the high nibble, or the condition code for JCC
//	remainder: immediate / displacement / target, little-endian, with the
//	        width EncodedSize chose (imm8/imm32/imm64, rel32)

// EncodeInstr appends the instruction's encoding to dst and returns the
// extended slice. The number of bytes appended always equals in.Size. An
// instruction with an unknown opcode, or whose Size disagrees with its
// encoding (a hand-built or corrupted Instr), is rejected with an error
// and dst is returned unchanged.
func EncodeInstr(dst []byte, in *Instr) ([]byte, error) {
	start := len(dst)
	dst = append(dst, byte(in.Op))
	switch in.Op {
	case NOP, RET, HALT:
		// opcode only
	case CPUID, REPMOVS, REPSTOS:
		dst = append(dst, 0)
	case PUSH, POP, JIND, CALLIND:
		dst = append(dst, regByte(in))
	case MOV, ADD, SUB, AND, OR, XOR, CMP, TEST:
		dst = append(dst, regByte(in))
	case MUL:
		dst = append(dst, regByte(in), 0)
	case SHL, SHR:
		dst = append(dst, regByte(in), byte(in.Imm&63))
	case MOVI:
		// Like x86's mov r32, imm32: the register rides in the opcode byte
		// (opcodes fit in 5 bits), keeping the short form at 5 bytes.
		dst[start] = byte(in.Op) | byte(in.Dst&7)<<5
		if fitsInt32(in.Imm) {
			dst = appendLE(dst, uint64(uint32(int32(in.Imm))), 4)
		} else {
			dst = append(dst, 0xFF) // wide-immediate marker
			dst = appendLE(dst, uint64(in.Imm), 8)
		}
	case ADDI, SUBI, CMPI:
		dst = append(dst, regByte(in))
		if fitsInt8(in.Imm) {
			dst = append(dst, byte(int8(in.Imm)))
		} else {
			dst = appendLE(dst, uint64(uint32(int32(in.Imm))), 4)
		}
	case LOAD, STORE:
		dst = append(dst, regByte(in))
		switch {
		case in.Disp == 0:
		case fitsInt8(int64(in.Disp)):
			dst = append(dst, byte(int8(in.Disp)))
		default:
			dst = appendLE(dst, uint64(uint32(in.Disp)), 4)
		}
	case JMP, CALL:
		dst = appendLE(dst, in.Target-in.Next(), 4) // rel32
	case JCC:
		dst = append(dst, byte(in.Cond))
		dst = appendLE(dst, in.Target-in.Next(), 4)
	default:
		return dst[:start], fmt.Errorf("isa: cannot encode op %v", in.Op)
	}
	if got := len(dst) - start; got != int(in.Size) {
		return dst[:start], fmt.Errorf("isa: encoded %v to %d bytes, size says %d", in, got, in.Size)
	}
	return dst, nil
}

// regByte packs Dst (low nibble) and Src (high nibble); NoReg packs as 0xF.
func regByte(in *Instr) byte {
	return nib(in.Dst) | nib(in.Src)<<4
}

func nib(r Reg) byte {
	if r == NoReg {
		return 0xF
	}
	return byte(r) & 0xF
}

func appendLE(dst []byte, v uint64, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, byte(v>>(8*i)))
	}
	return dst
}

// EncodeRange encodes the instructions of [lo, hi) (program addresses)
// into a fresh byte slice — what a DBT copies when it replicates a block.
func (p *Program) EncodeRange(lo, hi uint64) ([]byte, error) {
	var out []byte
	for i := p.first(lo); i < len(p.instrs) && p.instrs[i].Addr < hi; i++ {
		var err error
		out, err = EncodeInstr(out, &p.instrs[i])
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
