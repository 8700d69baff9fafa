package dbt

import (
	"context"
	"errors"
	"testing"

	"github.com/lsc-tea/tea/internal/asm"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
)

func TestRunWithContextCanceled(t *testing.T) {
	p, err := asm.Assemble("spin", "e:\n addi eax, 1\n jmp e\n")
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := New().RunWith(ctx, p, sel, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Set == nil {
		t.Fatal("no partial result returned on cancellation")
	}
}

func TestRunWithContextStepCap(t *testing.T) {
	p := progs.Figure2(60, 300)
	sel, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 50})
	res, err := New().RunWith(context.Background(), p, sel, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Steps < 500 {
		t.Errorf("stopped after %d steps, cap was 500", res.Info.Steps)
	}
	full, err := New().Run(p, "mret", trace.Config{HotThreshold: 50}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Steps >= full.Info.Steps {
		t.Errorf("capped run executed the whole program: %d steps", res.Info.Steps)
	}
}

func TestRunWithContextNil(t *testing.T) {
	p := progs.Figure1(10, 1)
	sel, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 5})
	if _, err := New().RunWith(nil, p, sel, 0); err != nil { //nolint:staticcheck
		t.Fatalf("nil context: %v", err)
	}
}
