package tea

import (
	"context"
	"errors"
	"testing"

	"github.com/lsc-tea/tea/internal/core"
)

const copySrc = `
; Figure 1(a): copy 100 words, repeated 60 rounds.
.entry main
.mem 8192
main:
    movi ebp, 60
round:
    movi ecx, 100
    movi esi, 1000
    movi edi, 4000
loop:
    load  eax, [esi+0]
    store [edi+0], eax
    addi  esi, 1
    addi  edi, 1
    subi  ecx, 1
    jne   loop
    subi ebp, 1
    jgt  round
    halt
`

func TestPublicEndToEnd(t *testing.T) {
	p, err := Assemble("copy", copySrc)
	if err != nil {
		t.Fatal(err)
	}
	set, err := RecordTraces(context.Background(), p, "mret", TraceConfig{HotThreshold: 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 {
		t.Fatal("no traces")
	}
	a := Build(set)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}

	// Size claims.
	if EncodedSize(a) >= CodeBytes(set) {
		t.Error("TEA not smaller than code replication")
	}

	// Serialize, decode, replay.
	data, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode(data, p)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Replay(context.Background(), p, b, ConfigGlobalLocal, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Coverage() < 0.9 {
		t.Errorf("coverage = %.3f", stats.Coverage())
	}
}

func TestPublicRecordOnline(t *testing.T) {
	p := MustAssemble("copy", copySrc)
	a, stats, err := RecordOnline(context.Background(), p, "mret", TraceConfig{HotThreshold: 30}, ConfigGlobalLocal, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumStates() < 2 {
		t.Error("online recording built nothing")
	}
	if stats.Instrs == 0 {
		t.Error("no instructions accounted")
	}
}

func TestPublicProfileAndDuplicate(t *testing.T) {
	p := MustAssemble("copy", copySrc)
	set, err := RecordTraces(context.Background(), p, "mret", TraceConfig{HotThreshold: 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	loop, ok := set.ByEntry(p.Labels["loop"])
	if !ok {
		t.Fatal("no loop trace")
	}
	dupSet, dup, err := DuplicateTrace(set, int32(loop.ID))
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := ProfileReplay(p, Build(dupSet), ConfigGlobalLocal, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ProfileByCopy(prof, dup)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Enters[0] == 0 || cp.Enters[1] == 0 {
		t.Errorf("copy counts: %+v", cp.Enters)
	}
}

func TestPublicBenchmark(t *testing.T) {
	if len(BenchmarkNames()) != 26 {
		t.Error("wrong benchmark count")
	}
	p, err := Benchmark("mcf", 200_000)
	if err != nil {
		t.Fatal(err)
	}
	set, _, cov, err := RunDBT(p, "mret", TraceConfig{HotThreshold: 12})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 || cov <= 0 {
		t.Errorf("set=%v cov=%.3f", set, cov)
	}
	var ub *UnknownBenchmarkError
	if _, err := Benchmark("doom", 1); !errors.As(err, &ub) {
		t.Errorf("err = %v, want UnknownBenchmarkError", err)
	}
}

func TestPublicErrors(t *testing.T) {
	p := MustAssemble("x", "e: halt\n")
	var us *UnknownStrategyError
	if _, err := RecordTraces(context.Background(), p, "bogus", TraceConfig{}, 0); !errors.As(err, &us) {
		t.Errorf("err = %v, want UnknownStrategyError", err)
	}
	if _, _, err := RecordOnline(context.Background(), p, "bogus", TraceConfig{}, ConfigGlobalLocal, 0, nil); err == nil {
		t.Error("bogus strategy accepted")
	}
	if _, err := Decode([]byte("junk"), p); err == nil {
		t.Error("junk decoded")
	}
}

func TestPublicRendering(t *testing.T) {
	p := MustAssemble("copy", copySrc)
	set, _ := RecordTraces(context.Background(), p, "mret", TraceConfig{HotThreshold: 30}, 0)
	a := Build(set)
	if Dot(a, "t") == "" || Summary(a) == "" {
		t.Error("empty rendering")
	}
}

func TestPublicPhaseDetector(t *testing.T) {
	p := MustAssemble("copy", copySrc)
	set, _ := RecordTraces(context.Background(), p, "mret", TraceConfig{HotThreshold: 30}, 0)
	det := NewPhaseDetector(256, 0.15)
	_, _, err := ProfileReplay(p, Build(set), ConfigGlobalLocal, det)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Phases()) == 0 {
		t.Error("no phases detected")
	}
	if det.StableFraction() < 0.5 {
		t.Errorf("stable fraction %.2f for a steady loop", det.StableFraction())
	}
}

func TestPublicMergePruneSimulate(t *testing.T) {
	p := MustAssemble("copy", copySrc)
	setA, err := RecordTraces(context.Background(), p, "mret", TraceConfig{HotThreshold: 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	setB, err := RecordTraces(context.Background(), p, "mret", TraceConfig{HotThreshold: 55}, 0)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(setA, setB)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() < setA.Len() {
		t.Error("merge lost traces")
	}

	prof, _, err := ProfileReplay(p, Build(merged), ConfigGlobalLocal, nil)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Prune(merged, prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Len() == 0 {
		t.Error("prune removed everything at threshold 1")
	}

	res, err := Simulate(p, Build(pruned), ConfigGlobalLocal, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.CPI() < 1 {
		t.Errorf("CPI = %.2f", res.Total.CPI())
	}
}

func TestPublicInstrReplayer(t *testing.T) {
	p := MustAssemble("copy", copySrc)
	set, err := RecordTraces(context.Background(), p, "mret", TraceConfig{HotThreshold: 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewInstrReplayer(Build(set), ConfigGlobalLocal, p)
	m := NewMachine(p)
	for !m.Halted() {
		r.StepInstr(m.PC())
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if r.Stats().Coverage() < 0.9 {
		t.Errorf("instruction-level coverage %.3f", r.Stats().Coverage())
	}
}

func TestPublicConstructors(t *testing.T) {
	p := MustAssemble("copy", copySrc)
	set, _ := RecordTraces(context.Background(), p, "mret", TraceConfig{HotThreshold: 30}, 0)
	a := Build(set)
	r := NewReplayer(a, ConfigGlobalNoLocal)
	if r.Cur() != core.NTE {
		t.Error("fresh replayer not at NTE")
	}
	if _, _, err := ProfileReplay(p, a, ConfigGlobalLocal, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Encode(a); err != nil {
		t.Fatal(err)
	}
}
