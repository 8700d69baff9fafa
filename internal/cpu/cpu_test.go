package cpu

import (
	"errors"
	"testing"

	"github.com/lsc-tea/tea/internal/asm"
	"github.com/lsc-tea/tea/internal/isa"
)

func run(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	if err := m.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestArithmeticAndFlags(t *testing.T) {
	m := run(t, `
e:
    movi eax, 10
    movi ebx, 3
    sub eax, ebx     ; eax = 7
    mul eax, ebx     ; eax = 21
    addi eax, -1     ; eax = 20
    shl eax, 2       ; eax = 80
    shr eax, 4       ; eax = 5
    movi ecx, 5
    xor ecx, eax     ; ecx = 0, ZF set
    jeq ok
    movi edx, 999
ok: halt
`)
	if got := m.Reg(isa.EAX); got != 5 {
		t.Errorf("eax = %d, want 5", got)
	}
	if got := m.Reg(isa.EDX); got != 0 {
		t.Errorf("edx = %d, want 0 (jeq not taken)", got)
	}
}

func TestConditionCodes(t *testing.T) {
	// For each condition, a compare that should take the branch.
	cases := []struct {
		name string
		src  string
	}{
		{"eq", "cmpi eax, 0\n jeq ok"},
		{"ne", "movi eax, 1\n cmpi eax, 0\n jne ok"},
		{"lt", "movi eax, -1\n cmpi eax, 0\n jlt ok"},
		{"ge", "movi eax, 3\n cmpi eax, 3\n jge ok"},
		{"le", "movi eax, 3\n cmpi eax, 3\n jle ok"},
		{"gt", "movi eax, 4\n cmpi eax, 3\n jgt ok"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := run(t, "e:\n "+c.src+"\n movi edi, 1\nok: halt\n")
			if m.Reg(isa.EDI) != 0 {
				t.Errorf("branch %s not taken", c.name)
			}
		})
	}
}

func TestLoadStoreAndDataInit(t *testing.T) {
	m := run(t, `
.data 100 = 77
e:
    movi esi, 100
    load eax, [esi+0]
    store [esi+1], eax
    load ebx, [esi+1]
    halt
`)
	if m.Reg(isa.EBX) != 77 {
		t.Errorf("ebx = %d, want 77", m.Reg(isa.EBX))
	}
	if m.Mem(101) != 77 {
		t.Errorf("mem[101] = %d", m.Mem(101))
	}
}

func TestMemoryWraps(t *testing.T) {
	m := run(t, `
.mem 128
e:
    movi esi, 1000      ; wraps modulo 128 -> 104
    movi eax, 5
    store [esi+0], eax
    halt
`)
	if m.Mem(1000%128) != 5 {
		t.Errorf("wrapped store missing: mem[%d] = %d", 1000%128, m.Mem(1000%128))
	}
	// Negative addresses wrap too.
	if m.wrap(-1) != 127 {
		t.Errorf("wrap(-1) = %d, want 127", m.wrap(-1))
	}
}

func TestCallRetAndStack(t *testing.T) {
	m := run(t, `
e:
    movi eax, 1
    call fn
    addi eax, 100      ; executes after return
    halt
fn:
    addi eax, 10
    ret
`)
	if m.Reg(isa.EAX) != 111 {
		t.Errorf("eax = %d, want 111", m.Reg(isa.EAX))
	}
}

func TestPushPop(t *testing.T) {
	m := run(t, `
e:
    movi eax, 42
    push eax
    movi eax, 0
    pop ebx
    halt
`)
	if m.Reg(isa.EBX) != 42 {
		t.Errorf("ebx = %d, want 42", m.Reg(isa.EBX))
	}
}

func TestIndirectJumpAndCall(t *testing.T) {
	p := asm.MustAssemble("ind", `
e:
    movi eax, 0
    ; load target address of 'fn' from data
    load ebx, [eax+100]
    callind ebx
    movi esi, 101
    load ecx, [esi+0]
    jind ecx
dead:
    movi eax, 999
    halt
fn:
    addi eax, 10
    ret
fin:
    addi eax, 1
    halt
`)
	p.InitData[100] = int64(p.Labels["fn"])
	p.InitData[101] = int64(p.Labels["fin"])
	m := New(p)
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if m.Reg(isa.EAX) != 11 {
		t.Errorf("eax = %d, want 11", m.Reg(isa.EAX))
	}
}

func TestRepMovsAndCounting(t *testing.T) {
	m := run(t, `
.data 10 = 1
.data 11 = 2
.data 12 = 3
e:
    movi ecx, 3
    movi esi, 10
    movi edi, 20
    repmovs
    halt
`)
	for i, want := range []int64{1, 2, 3} {
		if got := m.Mem(int64(20 + i)); got != want {
			t.Errorf("mem[%d] = %d, want %d", 20+i, got, want)
		}
	}
	if m.Reg(isa.ECX) != 0 || m.Reg(isa.ESI) != 13 || m.Reg(isa.EDI) != 23 {
		t.Errorf("regs after repmovs: ecx=%d esi=%d edi=%d", m.Reg(isa.ECX), m.Reg(isa.ESI), m.Reg(isa.EDI))
	}
	// StarDBT counts the rep once; Pin counts each iteration (§4.1).
	if m.RepOps() != 1 || m.repIters != 3 {
		t.Errorf("RepOps=%d repIters=%d", m.RepOps(), m.repIters)
	}
	if m.PinSteps() != m.Steps()+2 {
		t.Errorf("PinSteps=%d Steps=%d; want PinSteps = Steps+2", m.PinSteps(), m.Steps())
	}
}

func TestRepStos(t *testing.T) {
	m := run(t, `
e:
    movi eax, 9
    movi ecx, 4
    movi edi, 50
    repstos
    halt
`)
	for i := 0; i < 4; i++ {
		if m.Mem(int64(50+i)) != 9 {
			t.Errorf("mem[%d] = %d, want 9", 50+i, m.Mem(int64(50+i)))
		}
	}
}

func TestRepZeroAndNegativeCount(t *testing.T) {
	m := run(t, `
e:
    movi ecx, 0
    repmovs
    movi ecx, -5
    repstos
    halt
`)
	if m.repIters != 0 {
		t.Errorf("repIters = %d, want 0", m.repIters)
	}
}

func TestFuelExhaustion(t *testing.T) {
	p := asm.MustAssemble("spin", "e: jmp e\n")
	m := New(p)
	err := m.Run(100)
	if !errors.Is(err, ErrFuel) {
		t.Errorf("err = %v, want ErrFuel", err)
	}
	if m.Steps() != 100 {
		t.Errorf("Steps = %d, want 100", m.Steps())
	}
}

func TestHaltStops(t *testing.T) {
	m := run(t, "e: halt\n")
	if !m.Halted() {
		t.Error("not halted")
	}
	if _, err := m.Step(); err == nil {
		t.Error("Step after HALT succeeded")
	}
}

func TestWildIndirectJumpFaults(t *testing.T) {
	p := asm.MustAssemble("wild", "e:\n movi eax, 12345\n jind eax\n halt\n")
	m := New(p)
	err := m.Run(100)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want Fault", err)
	}
}

func TestStackUnderflowFaults(t *testing.T) {
	p := asm.MustAssemble("uf", "e:\n ret\n")
	// ESP starts at MemWords; ret pops at mem[MemWords] -> underflow.
	m := New(p)
	if err := m.Run(10); err == nil {
		t.Error("ret with empty stack succeeded")
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	p := asm.MustAssemble("r", `
.data 5 = 50
e:
    movi eax, 1
    store [eax+4], eax   ; mem[5] = 1
    halt
`)
	m := New(p)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if m.Halted() || m.Steps() != 0 || m.PC() != p.Entry {
		t.Error("Reset incomplete")
	}
	if m.Mem(5) != 50 {
		t.Errorf("mem[5] = %d after reset, want 50", m.Mem(5))
	}
	if m.Reg(isa.EAX) != 0 {
		t.Error("registers not cleared")
	}
	// Deterministic re-run.
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.Mem(5) != 1 {
		t.Error("second run diverged")
	}
}

func TestFigure1MemcopySemantics(t *testing.T) {
	// The paper's Figure 1(a): copy 100 words from [esi] to [edi].
	p := asm.MustAssemble("fig1", `
.mem 4096
.entry main
main:
    movi ecx, 100
    movi esi, 1000
    movi edi, 2000
loop:
    load  eax, [esi+0]
    store [edi+0], eax
    addi  esi, 1
    addi  edi, 1
    subi  ecx, 1
    jne   loop
    halt
`)
	for i := int64(0); i < 100; i++ {
		p.InitData[1000+i] = i * 3
	}
	m := New(p)
	if err := m.Run(1 << 16); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if m.Mem(2000+i) != i*3 {
			t.Fatalf("mem[%d] = %d, want %d", 2000+i, m.Mem(2000+i), i*3)
		}
	}
	// 3 setup + 100 iterations × 6 + 1 halt.
	if want := uint64(3 + 600 + 1); m.Steps() != want {
		t.Errorf("Steps = %d, want %d", m.Steps(), want)
	}
}
