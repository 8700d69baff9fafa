package trace

import (
	"context"
	"errors"
	"testing"

	"github.com/lsc-tea/tea/internal/asm"
	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/progs"
)

func TestRecordContextCanceled(t *testing.T) {
	p, err := asm.Assemble("spin", "e:\n addi eax, 1\n jmp e\n")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewStrategy("mret", p, Config{HotThreshold: 5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	set, info, err := Record(ctx, cpu.New(p), cfg.StarDBT, s, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if set == nil || info == nil {
		t.Fatal("no partial results returned on cancellation")
	}
}

func TestRecordContextStepCap(t *testing.T) {
	p := progs.Figure2(60, 300)
	s, _ := NewStrategy("mret", p, Config{HotThreshold: 50})
	set, info, err := Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 500)
	if err != nil {
		t.Fatal(err)
	}
	if set == nil || info.Steps < 500 {
		t.Fatalf("capped run: set=%v steps=%d", set, info.Steps)
	}

	_, full, err := Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Steps >= full.Steps {
		t.Errorf("capped run executed the whole program: %d steps", info.Steps)
	}
}

func TestRecordContextNil(t *testing.T) {
	p := progs.Figure1(10, 1)
	s, _ := NewStrategy("mret", p, Config{HotThreshold: 5})
	if _, _, err := Record(nil, cpu.New(p), cfg.StarDBT, s, 0); err != nil { //nolint:staticcheck
		t.Fatalf("nil context: %v", err)
	}
}
