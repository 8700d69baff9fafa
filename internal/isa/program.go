package isa

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// BaseAddr is the address at which program text is laid out by default. A
// non-zero base keeps address arithmetic honest (zero is never a valid PC).
const BaseAddr uint64 = 0x08048000

// Program is an immutable laid-out program: a code image plus entry point,
// symbol table and initial data memory. Programs are built either by the
// assembler (internal/asm) or by the workload generator.
type Program struct {
	Name  string
	Entry uint64

	instrs []Instr
	// pos is the dense address→index table over the text [base, end):
	// pos[a-base] is the layout index plus one of the instruction that
	// starts at a, and 0 at every other byte. A lookup is one bounds check
	// and one load; an address below base wraps past the end and misses.
	base uint64
	pos  []int32

	// Labels maps symbol names to code addresses (filled by the assembler).
	// It must not change after the first SymbolFor call.
	Labels map[string]uint64

	// syms maps each labeled address to its lexicographically smallest
	// label, built from Labels on the first SymbolFor call.
	symsOnce sync.Once
	syms     map[uint64]string

	// MemWords is the size of data memory in 64-bit words. The stack
	// occupies the top of this region.
	MemWords int

	// InitData holds initial values for data memory, keyed by word address.
	InitData map[int64]int64
}

// Builder accumulates instructions and lays them out into a Program.
type Builder struct {
	name   string
	base   uint64
	next   uint64
	instrs []Instr
	labels map[string]uint64
}

// NewBuilder returns a Builder laying out code from BaseAddr.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, base: BaseAddr, next: BaseAddr, labels: make(map[string]uint64)}
}

// PC returns the address the next appended instruction will occupy.
func (b *Builder) PC() uint64 { return b.next }

// Label records a symbol at the current PC.
func (b *Builder) Label(name string) { b.labels[name] = b.next }

// Emit appends an instruction, assigning its address and encoded size.
// Branch targets may be patched later via PatchTarget.
func (b *Builder) Emit(i Instr) int {
	i.Addr = b.next
	i.Size = EncodedSize(&i)
	b.next += uint64(i.Size)
	b.instrs = append(b.instrs, i)
	return len(b.instrs) - 1
}

// PatchTarget rewrites the branch target of a previously emitted
// instruction (two-pass assembly of forward references).
func (b *Builder) PatchTarget(idx int, target uint64) {
	b.instrs[idx].Target = target
}

// LabelAddr reports the address of a previously recorded label.
func (b *Builder) LabelAddr(name string) (uint64, bool) {
	a, ok := b.labels[name]
	return a, ok
}

// Build finalizes the program. Entry defaults to the base address when the
// named entry label is empty or absent.
func (b *Builder) Build(entry string, memWords int) (*Program, error) {
	p := &Program{
		Name:     b.name,
		Entry:    b.base,
		instrs:   b.instrs,
		base:     b.base,
		pos:      make([]int32, b.next-b.base),
		Labels:   b.labels,
		MemWords: memWords,
		InitData: make(map[int64]int64),
	}
	for i := range p.instrs {
		p.pos[p.instrs[i].Addr-p.base] = int32(i + 1)
	}
	if entry != "" {
		a, ok := b.labels[entry]
		if !ok {
			return nil, fmt.Errorf("isa: entry label %q not defined", entry)
		}
		p.Entry = a
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Program) validate() error {
	if len(p.instrs) == 0 {
		return fmt.Errorf("isa: program %q has no instructions", p.Name)
	}
	for i := range p.instrs {
		in := &p.instrs[i]
		switch in.Op {
		case JMP, JCC, CALL:
			if _, ok := p.IndexOf(in.Target); !ok {
				return fmt.Errorf("isa: %s at 0x%x targets 0x%x which is not an instruction boundary", in.Op, in.Addr, in.Target)
			}
		}
	}
	if _, ok := p.IndexOf(p.Entry); !ok {
		return fmt.Errorf("isa: entry 0x%x is not an instruction boundary", p.Entry)
	}
	return nil
}

// At returns the instruction at the exact address.
func (p *Program) At(addr uint64) (*Instr, bool) {
	i, ok := p.IndexOf(addr)
	if !ok {
		return nil, false
	}
	return &p.instrs[i], true
}

// Len returns the static instruction count.
func (p *Program) Len() int { return len(p.instrs) }

// Instr returns the i-th instruction in layout order.
func (p *Program) Instr(i int) *Instr { return &p.instrs[i] }

// IndexOf returns the layout index of the instruction at addr.
func (p *Program) IndexOf(addr uint64) (int, bool) {
	if off := addr - p.base; off < uint64(len(p.pos)) && p.pos[off] != 0 {
		return int(p.pos[off]) - 1, true
	}
	return 0, false
}

// first returns the layout index of the first instruction at or after
// addr (Len when there is none). Layout order is address order.
func (p *Program) first(addr uint64) int {
	return sort.Search(len(p.instrs), func(i int) bool { return p.instrs[i].Addr >= addr })
}

// StaticBytes returns the total encoded size of the program text.
func (p *Program) StaticBytes() uint64 {
	if len(p.instrs) == 0 {
		return 0
	}
	last := &p.instrs[len(p.instrs)-1]
	return last.Addr + uint64(last.Size) - p.instrs[0].Addr
}

// SymbolFor returns the name of the label at addr, if any. When several
// labels share an address the lexicographically smallest is returned, so
// output is deterministic.
func (p *Program) SymbolFor(addr uint64) (string, bool) {
	p.symsOnce.Do(func() {
		p.syms = make(map[uint64]string, len(p.Labels))
		for n, a := range p.Labels {
			if cur, ok := p.syms[a]; !ok || n < cur {
				p.syms[a] = n
			}
		}
	})
	sym, ok := p.syms[addr]
	return sym, ok
}

// Disassemble renders the instructions in [lo, hi) as text, one per line,
// with addresses and any labels.
func (p *Program) Disassemble(lo, hi uint64) string {
	var out []byte
	var hex [16]byte
	for i := p.first(lo); i < len(p.instrs) && p.instrs[i].Addr < hi; i++ {
		in := &p.instrs[i]
		if sym, ok := p.SymbolFor(in.Addr); ok {
			out = append(append(out, sym...), ":\n"...)
		}
		// "  0x%08x  %s\n" without fmt.
		out = append(out, "  0x"...)
		h := strconv.AppendUint(hex[:0], in.Addr, 16)
		for n := len(h); n < 8; n++ {
			out = append(out, '0')
		}
		out = append(append(out, h...), "  "...)
		out = append(in.appendText(out), '\n')
	}
	return string(out)
}
