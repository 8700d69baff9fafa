package cpu_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/lsc-tea/tea/internal/asm"
	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
)

// spin is a program that never halts: the adversarial input a cancellable
// run exists to survive.
const spin = `
e:
    addi eax, 1
    jmp  e
`

// runArmed drives m to its end under the shared stop rule: a cfg.Runner
// armed with (ctx, maxSteps) is how a machine runs cancellably (cpu itself
// keeps only the step-capped Run). It returns the runner's stop error.
func runArmed(t *testing.T, ctx context.Context, m *cpu.Machine, maxSteps uint64) error {
	t.Helper()
	r := cfg.NewRunner(m, cfg.StarDBT)
	r.Arm(ctx, maxSteps)
	for {
		_, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return r.Err()
		}
	}
}

func TestRunContextCancel(t *testing.T) {
	p, err := asm.Assemble("spin", spin)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("pre-canceled", func(t *testing.T) {
		m := cpu.New(p)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := runArmed(t, ctx, m, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		// The machine stays inspectable after a cancelled run.
		if m.Halted() {
			t.Error("machine reports halted after cancellation")
		}
	})

	t.Run("deadline", func(t *testing.T) {
		m := cpu.New(p)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		if err := runArmed(t, ctx, m, 0); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if m.Steps() == 0 {
			t.Error("no progress before the deadline")
		}
	})

	t.Run("step-cap", func(t *testing.T) {
		m := cpu.New(p)
		if err := runArmed(t, context.Background(), m, 5000); err != nil {
			t.Fatalf("step cap reported %v, want nil", err)
		}
		if m.Steps() < 5000 {
			t.Errorf("stopped after %d steps, cap was 5000", m.Steps())
		}
		// The spin loop's block is two instructions: the cap is tested
		// before each block, so the run ends within one block of it.
		if m.Steps() > 5000+2 {
			t.Errorf("ran %d steps past a 5000-step cap", m.Steps())
		}
	})

	t.Run("nil-context", func(t *testing.T) {
		m := cpu.New(p)
		if err := runArmed(t, nil, m, 100); err != nil { //nolint:staticcheck
			t.Fatalf("nil context with step cap: %v", err)
		}
		if m.Steps() < 100 {
			t.Errorf("stopped after %d steps, cap was 100", m.Steps())
		}
	})
}

func TestRunContextHaltsNormally(t *testing.T) {
	p, err := asm.Assemble("ok", "e:\n movi eax, 7\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.New(p)
	if err := runArmed(t, context.Background(), m, 0); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Error("machine did not halt")
	}
}
