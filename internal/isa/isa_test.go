package isa

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestRegNamesRoundTrip(t *testing.T) {
	for r := Reg(0); r < NumRegs; r++ {
		name := r.String()
		got, ok := RegByName(name)
		if !ok || got != r {
			t.Errorf("RegByName(%q) = %v, %v; want %v", name, got, ok, r)
		}
	}
	if _, ok := RegByName("r15"); ok {
		t.Error("RegByName accepted unknown register")
	}
	if NoReg.String() != "-" {
		t.Errorf("NoReg.String() = %q", NoReg.String())
	}
}

func TestCondNamesRoundTrip(t *testing.T) {
	for c := Cond(0); c < numConds; c++ {
		got, ok := CondByName(c.String())
		if !ok || got != c {
			t.Errorf("CondByName(%q) = %v, %v; want %v", c.String(), got, ok, c)
		}
	}
	if _, ok := CondByName("xx"); ok {
		t.Error("CondByName accepted unknown condition")
	}
}

func TestOpStrings(t *testing.T) {
	for o := Op(0); o < numOps; o++ {
		if s := o.String(); s == "" || strings.HasPrefix(s, "op?") {
			t.Errorf("Op(%d) has no name", o)
		}
	}
}

func TestInstrPredicates(t *testing.T) {
	cases := []struct {
		op                                  Op
		branch, cond, indirect, call, falls bool
	}{
		{NOP, false, false, false, false, true},
		{MOV, false, false, false, false, true},
		{JMP, true, false, false, false, false},
		{JCC, true, true, false, false, true},
		{JIND, true, false, true, false, false},
		{CALL, true, false, false, true, true},
		{CALLIND, true, false, true, true, true},
		{RET, true, false, true, false, false},
		{HALT, true, false, false, false, false},
		{REPMOVS, false, false, false, false, true},
		{CPUID, false, false, false, false, true},
	}
	for _, c := range cases {
		in := &Instr{Op: c.op}
		if in.IsBranch() != c.branch {
			t.Errorf("%s.IsBranch() = %v", c.op, in.IsBranch())
		}
		if in.IsCondBranch() != c.cond {
			t.Errorf("%s.IsCondBranch() = %v", c.op, in.IsCondBranch())
		}
		if in.IsIndirect() != c.indirect {
			t.Errorf("%s.IsIndirect() = %v", c.op, in.IsIndirect())
		}
		if in.IsCall() != c.call {
			t.Errorf("%s.IsCall() = %v", c.op, in.IsCall())
		}
		if in.FallsThrough() != c.falls {
			t.Errorf("%s.FallsThrough() = %v", c.op, in.FallsThrough())
		}
	}
}

func TestIsRep(t *testing.T) {
	if !(&Instr{Op: REPMOVS}).IsRep() || !(&Instr{Op: REPSTOS}).IsRep() {
		t.Error("REP ops not recognized")
	}
	if (&Instr{Op: MOV}).IsRep() {
		t.Error("MOV recognized as REP")
	}
}

func TestEncodedSizeImmediateWidths(t *testing.T) {
	small := &Instr{Op: ADDI, Imm: 100}
	big := &Instr{Op: ADDI, Imm: 1000}
	if EncodedSize(small) >= EncodedSize(big) {
		t.Errorf("imm8 form (%d) not smaller than imm32 form (%d)", EncodedSize(small), EncodedSize(big))
	}
	if EncodedSize(&Instr{Op: MOVI, Imm: 1}) != 5 {
		t.Errorf("MOVI imm32 size = %d, want 5", EncodedSize(&Instr{Op: MOVI, Imm: 1}))
	}
	if EncodedSize(&Instr{Op: MOVI, Imm: 1 << 40}) != 10 {
		t.Errorf("MOVI imm64 size = %d, want 10", EncodedSize(&Instr{Op: MOVI, Imm: 1 << 40}))
	}
	if EncodedSize(&Instr{Op: LOAD, Disp: 0}) != 2 ||
		EncodedSize(&Instr{Op: LOAD, Disp: 100}) != 3 ||
		EncodedSize(&Instr{Op: LOAD, Disp: 1000}) != 6 {
		t.Error("LOAD displacement widths wrong")
	}
}

func TestEncodedSizePositive(t *testing.T) {
	f := func(op uint8, imm int64, disp int32) bool {
		in := &Instr{Op: Op(op % uint8(numOps)), Imm: imm, Disp: disp}
		sz := EncodedSize(in)
		return sz >= 1 && sz <= 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstrNext(t *testing.T) {
	in := &Instr{Op: NOP, Addr: 0x1000, Size: 1}
	if in.Next() != 0x1001 {
		t.Errorf("Next() = 0x%x", in.Next())
	}
}

func TestBuilderLayout(t *testing.T) {
	b := NewBuilder("t")
	b.Label("main")
	i0 := b.Emit(Instr{Op: MOVI, Dst: EAX, Imm: 1})
	b.Label("loop")
	b.Emit(Instr{Op: ADDI, Dst: EAX, Imm: 1})
	j := b.Emit(Instr{Op: JMP})
	loopAddr, ok := b.LabelAddr("loop")
	if !ok {
		t.Fatal("loop label missing")
	}
	b.PatchTarget(j, loopAddr)
	b.Emit(Instr{Op: HALT})
	p, err := b.Build("main", 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != BaseAddr {
		t.Errorf("entry = 0x%x, want 0x%x", p.Entry, BaseAddr)
	}
	if p.Len() != 4 {
		t.Errorf("Len = %d, want 4", p.Len())
	}
	first := p.Instr(i0)
	if first.Addr != BaseAddr || first.Size != 5 {
		t.Errorf("first instr at 0x%x size %d", first.Addr, first.Size)
	}
	// Addresses are contiguous.
	for i := 1; i < p.Len(); i++ {
		prev := p.Instr(i - 1)
		if p.Instr(i).Addr != prev.Addr+uint64(prev.Size) {
			t.Errorf("instr %d not contiguous", i)
		}
	}
	if p.StaticBytes() == 0 {
		t.Error("StaticBytes = 0")
	}
}

func TestBuilderValidatesTargets(t *testing.T) {
	b := NewBuilder("bad")
	b.Emit(Instr{Op: JMP, Target: 0xdeadbeef})
	if _, err := b.Build("", 64); err == nil {
		t.Error("Build accepted wild branch target")
	}

	b2 := NewBuilder("empty")
	if _, err := b2.Build("", 64); err == nil {
		t.Error("Build accepted empty program")
	}

	b3 := NewBuilder("noentry")
	b3.Emit(Instr{Op: HALT})
	if _, err := b3.Build("missing", 64); err == nil {
		t.Error("Build accepted undefined entry label")
	}
}

func TestProgramAt(t *testing.T) {
	b := NewBuilder("t")
	b.Emit(Instr{Op: NOP})
	b.Emit(Instr{Op: HALT})
	p, err := b.Build("", 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.At(BaseAddr); !ok {
		t.Error("At(entry) failed")
	}
	if _, ok := p.At(BaseAddr + 12345); ok {
		t.Error("At accepted bogus address")
	}
}

func TestSymbolForDeterministic(t *testing.T) {
	b := NewBuilder("t")
	b.Label("zeta")
	b.Label("alpha")
	b.Emit(Instr{Op: HALT})
	p, err := b.Build("", 64)
	if err != nil {
		t.Fatal(err)
	}
	sym, ok := p.SymbolFor(BaseAddr)
	if !ok || sym != "alpha" {
		t.Errorf("SymbolFor = %q, %v; want alpha", sym, ok)
	}
	if _, ok := p.SymbolFor(0x1); ok {
		t.Error("SymbolFor found symbol at bogus address")
	}
}

// TestSymbolForConcurrent: the first SymbolFor calls, which build the
// address index, may come from several goroutines at once.
func TestSymbolForConcurrent(t *testing.T) {
	b := NewBuilder("t")
	b.Label("e")
	b.Emit(Instr{Op: NOP})
	at := b.PC()
	b.Label("second")
	b.Label("b2")
	b.Emit(Instr{Op: HALT})
	p, err := b.Build("e", 64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sym, ok := p.SymbolFor(at); !ok || sym != "b2" {
				t.Errorf("SymbolFor = %q, %v; want b2", sym, ok)
			}
		}()
	}
	wg.Wait()
}

func TestDisassembleContainsLabels(t *testing.T) {
	b := NewBuilder("t")
	b.Label("main")
	b.Emit(Instr{Op: MOVI, Dst: EAX, Imm: 7})
	b.Emit(Instr{Op: HALT})
	p, err := b.Build("main", 64)
	if err != nil {
		t.Fatal(err)
	}
	text := p.Disassemble(0, ^uint64(0))
	if !strings.Contains(text, "main:") || !strings.Contains(text, "movi eax, 7") {
		t.Errorf("Disassemble output missing content:\n%s", text)
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: MOV, Dst: EAX, Src: EBX}, "mov eax, ebx"},
		{Instr{Op: MOVI, Dst: ECX, Imm: -3}, "movi ecx, -3"},
		{Instr{Op: LOAD, Dst: EAX, Src: ESI, Disp: 4}, "load eax, [esi+4]"},
		{Instr{Op: STORE, Dst: EDI, Src: EAX, Disp: -2}, "store [edi-2], eax"},
		{Instr{Op: JCC, Cond: CondNE, Target: 0x10}, "jne 0x10"},
		{Instr{Op: PUSH, Src: EBP}, "push ebp"},
		{Instr{Op: POP, Dst: EBP}, "pop ebp"},
		{Instr{Op: JIND, Src: EAX}, "jind eax"},
		{Instr{Op: RET}, "ret"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
