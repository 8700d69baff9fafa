package core

import (
	"testing"

	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
)

// runInstrReplay drives the instruction-level replayer with the machine's
// per-instruction PC stream.
func runInstrReplay(t *testing.T, p *isa.Program, a *Automaton) *InstrStats {
	t.Helper()
	r := NewInstrReplayer(a, ConfigGlobalLocal, p)
	m := cpu.New(p)
	for !m.Halted() {
		pc := m.PC()
		r.StepInstr(pc)
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return r.Stats()
}

func TestInstrReplayCoverageMatchesBlockLevel(t *testing.T) {
	// Instruction-level and block-level replay are two views of the same
	// automaton: their coverage must agree exactly (both count StarDBT
	// style here: the machine loop counts a REP once).
	p := progs.Figure2(60, 200)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 30})
	a := Build(set)

	instr := runInstrReplay(t, p, a)
	block := replayProgram(t, p, a, ConfigGlobalLocal)

	if instr.Instrs == 0 {
		t.Fatal("no instructions replayed")
	}
	// The block-level driver misses the final block's instructions (the
	// loop breaks at e.To == nil); tolerate that sliver.
	if d := instr.Coverage() - block.Coverage(); d > 0.01 || d < -0.01 {
		t.Errorf("instruction coverage %.4f vs block coverage %.4f",
			instr.Coverage(), block.Coverage())
	}
	if instr.SeqHits == 0 || instr.Boundary == 0 || instr.ColdSeq == 0 {
		t.Errorf("stats incomplete: %+v", instr)
	}
	// Sequential hits dominate: most instructions are not block heads.
	if instr.SeqHits < instr.Boundary {
		t.Errorf("sequential hits (%d) should dominate boundaries (%d)",
			instr.SeqHits, instr.Boundary)
	}
}

func TestInstrReplayCursorTracksIndices(t *testing.T) {
	p := progs.Figure1(100, 60)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 30})
	a := Build(set)
	r := NewInstrReplayer(a, ConfigGlobalLocal, p)

	m := cpu.New(p)
	for !m.Halted() {
		pc := m.PC()
		in := r.StepInstr(pc)
		if in {
			st, idx := r.Cur()
			tbb := a.State(st).TBB
			// The cursor's (state, index) must locate to exactly pc.
			loc, ok := a.locateIn(p, st, pc)
			if !ok || loc.Index != idx {
				t.Fatalf("cursor (%v,%d) vs Locate %+v ok=%v at 0x%x", tbb, idx, loc, ok, pc)
			}
		}
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInstrLevelEncodingLargerThanBlockLevel(t *testing.T) {
	// The ablation that justifies block granularity: the instruction-level
	// wire format is several times the block-level one, though both stay
	// below code replication for typical blocks.
	p := progs.Figure2(64, 400)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 20})
	a := Build(set)

	blockBytes := EncodedSize(a)
	instrBytes, err := InstrLevelSize(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if instrBytes <= blockBytes {
		t.Errorf("instruction-level (%d) not larger than block-level (%d)", instrBytes, blockBytes)
	}
	code := set.CodeBytes()
	t.Logf("code %dB, instr-TEA %dB, block-TEA %dB", code, instrBytes, blockBytes)
	if instrBytes >= code {
		t.Errorf("instruction-level TEA (%d) not smaller than code (%d)", instrBytes, code)
	}
}

func TestEncodeInstrLevelRejectsForeignProgram(t *testing.T) {
	p := progs.Figure2(60, 200)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 30})
	a := Build(set)
	other := progs.Figure1(10, 1)
	if _, err := EncodeInstrLevel(a, other); err == nil {
		t.Error("foreign program accepted")
	}
}
