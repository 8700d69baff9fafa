package isa_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/workload"
)

// indexPrograms are generated programs of three shapes: 181.mcf,
// 176.gcc (the largest text) and 901.steady (a small loop nest).
func indexPrograms(t *testing.T) []*isa.Program {
	t.Helper()
	var out []*isa.Program
	for _, name := range []string{"181.mcf", "176.gcc", "901.steady"} {
		spec, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		out = append(out, workload.Program(spec))
	}
	return out
}

// textEnd is the address one past the program's last instruction.
func textEnd(p *isa.Program) uint64 { return p.Instr(p.Len() - 1).Next() }

// TestIndexMatchesScan holds At and IndexOf to the index a linear scan of
// the layout gives, at every address from 16 bytes below the text to 16
// past its end: instruction starts, mid-instruction offsets, below-base
// and past-end addresses, plus addresses far outside the text.
func TestIndexMatchesScan(t *testing.T) {
	for _, p := range indexPrograms(t) {
		scan := make(map[uint64]int, p.Len())
		for i := 0; i < p.Len(); i++ {
			scan[p.Instr(i).Addr] = i
		}
		check := func(a uint64) {
			want, wantOK := scan[a]
			got, ok := p.IndexOf(a)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("%s: IndexOf(0x%x) = %d, %v; want %d, %v", p.Name, a, got, ok, want, wantOK)
			}
			in, ok := p.At(a)
			if ok != wantOK || (ok && in != p.Instr(want)) || (!ok && in != nil) {
				t.Fatalf("%s: At(0x%x) = %v, %v; want instruction %d, %v", p.Name, a, in, ok, want, wantOK)
			}
		}
		base := p.Instr(0).Addr
		for a := base - 16; a < textEnd(p)+16; a++ {
			check(a)
		}
		for _, a := range []uint64{0, 1, base - 1<<32, 1 << 63, ^uint64(0)} {
			check(a)
		}
	}
}

// encodeRangeScan is EncodeRange's definition as a scan of every
// instruction: encode, in layout order, each one whose address is in
// [lo, hi).
func encodeRangeScan(p *isa.Program, lo, hi uint64) ([]byte, error) {
	var out []byte
	for i := 0; i < p.Len(); i++ {
		in := p.Instr(i)
		if in.Addr < lo || in.Addr >= hi {
			continue
		}
		var err error
		out, err = isa.EncodeInstr(out, in)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// disassemblyLines is Disassemble's text per instruction, built from the
// whole label map: the instruction's line, preceded by a label line for
// the lexicographically smallest label at its address, if any.
func disassemblyLines(p *isa.Program) []string {
	names := make(map[uint64][]string)
	for n, a := range p.Labels {
		names[a] = append(names[a], n)
	}
	lines := make([]string, p.Len())
	for i := range lines {
		in := p.Instr(i)
		line := fmt.Sprintf("  0x%08x  %s\n", in.Addr, in)
		if ns := names[in.Addr]; len(ns) > 0 {
			sort.Strings(ns)
			line = ns[0] + ":\n" + line
		}
		lines[i] = line
	}
	return lines
}

// disassembleScan is Disassemble's definition as a scan of every
// instruction: the lines of those whose address is in [lo, hi).
func disassembleScan(p *isa.Program, lines []string, lo, hi uint64) string {
	var out strings.Builder
	for i := 0; i < p.Len(); i++ {
		if a := p.Instr(i).Addr; a >= lo && a < hi {
			out.WriteString(lines[i])
		}
	}
	return out.String()
}

// ranges draws [lo, hi) pairs over p's text: random spans of up to 256
// bytes that start anywhere (mid-instruction too), empty and inverted
// ranges, ranges reaching below the base and past the end, and the whole
// text.
func ranges(p *isa.Program, rng *rand.Rand, n int) [][2]uint64 {
	base, end := p.Instr(0).Addr, textEnd(p)
	out := [][2]uint64{
		{base, end}, {0, ^uint64(0)}, {base - 8, base + 8}, {end - 8, end + 8},
		{end, end + 64}, {end + 64, end + 128}, {base, base}, {end, base},
	}
	for i := 0; i < n; i++ {
		lo := base - 32 + uint64(rng.Int63n(int64(end-base+64)))
		hi := lo + uint64(rng.Intn(257))
		switch rng.Intn(8) {
		case 0:
			hi = lo // empty
		case 1:
			lo, hi = hi, lo // inverted (or empty)
		case 2:
			hi = end + uint64(rng.Intn(32)) // to past the end
		}
		out = append(out, [2]uint64{lo, hi})
	}
	return out
}

// TestRangeWalksMatchScan holds EncodeRange and Disassemble, which walk
// only the instructions of their range, to the full-scan definitions:
// identical bytes (nil for an empty range), errors and text.
func TestRangeWalksMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, p := range indexPrograms(t) {
		lines := disassemblyLines(p)
		for _, r := range ranges(p, rng, 400) {
			lo, hi := r[0], r[1]
			got, err := p.EncodeRange(lo, hi)
			want, wantErr := encodeRangeScan(p, lo, hi)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(err, wantErr) {
				t.Fatalf("%s: EncodeRange(0x%x, 0x%x) = %x, %v; want %x, %v", p.Name, lo, hi, got, err, want, wantErr)
			}
			if got, want := p.Disassemble(lo, hi), disassembleScan(p, lines, lo, hi); got != want {
				t.Fatalf("%s: Disassemble(0x%x, 0x%x) =\n%s\nwant\n%s", p.Name, lo, hi, got, want)
			}
		}
	}
}

// TestEncodeRangeErrorMatchesScan: a range holding an instruction that
// cannot be encoded fails with the scan's error, from the first such
// instruction in layout order, and no bytes.
func TestEncodeRangeErrorMatchesScan(t *testing.T) {
	b := isa.NewBuilder("bad")
	b.Label("e")
	b.Emit(isa.Instr{Op: isa.MOVI, Dst: isa.EAX, Imm: 1})
	b.Emit(isa.Instr{Op: isa.Op(250)})
	b.Emit(isa.Instr{Op: isa.ADDI, Dst: isa.EAX, Imm: 1})
	b.Emit(isa.Instr{Op: isa.Op(251)})
	b.Emit(isa.Instr{Op: isa.HALT})
	p, err := b.Build("e", 16)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, r := range ranges(p, rand.New(rand.NewSource(1)), 200) {
		got, err := p.EncodeRange(r[0], r[1])
		want, wantErr := encodeRangeScan(p, r[0], r[1])
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("EncodeRange(0x%x, 0x%x) = %x, %v; want %x, %v", r[0], r[1], got, err, want, wantErr)
		}
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no range reached an unencodable instruction")
	}
}
