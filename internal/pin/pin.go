// Package pin models the instrumentation framework the paper implements
// its TEA tool in: a Pin-like engine [Luk et al. 2005] that runs a program
// out of a code cache and calls user "analysis routines" at instrumented
// points.
//
// Two behaviours of the real Pin matter for the paper's experiments and
// are reproduced here (§4.1):
//
//   - Pin breaks dynamic basic blocks at "unexpected" instructions (CPUID)
//     and at REP-prefixed instructions, which it expands into loops.
//     Because of that, the paper's pintool instruments the *taken and
//     fall-through edges* of branches rather than the beginnings of TBBs,
//     so that it sees exactly the transitions StarDBT saw. This engine does
//     the same: tools receive one callback per *branch* edge, with Pin's
//     internal split edges merged into the preceding block.
//
//   - Pin counts every iteration of a REP instruction as one dynamic
//     instruction, whereas StarDBT counts the instruction once. The per-
//     callback instruction counts here use Pin's convention.
package pin

import (
	"context"
	"fmt"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
)

// Tool is a pintool: a set of analysis routines invoked on instrumented
// edges. Edge is called once per observed branch edge with the number of
// dynamic instructions (Pin-counted) executed since the previous callback;
// for the initial pseudo-edge into the program entry instrs is zero. Fini
// is called once after the program halts with the trailing instruction
// count.
type Tool interface {
	Edge(e cfg.Edge, instrs uint64)
	Fini(instrs uint64)
}

// CostModel carries the engine's simulated costs in units of one natively
// executed instruction.
type CostModel struct {
	// PerInstr is the cost of one instruction run from the code cache.
	PerInstr float64
	// PerBlock is the engine's per-block overhead (code-cache dispatch,
	// versus native fall-through). Paid for every Pin block whether or not
	// a tool is attached; this alone produces the "Without Pintool" row of
	// Table 4.
	PerBlock float64
	// JitBlock is the one-time instrumentation/compilation cost per block.
	JitBlock float64
	// PerCall is the cost of calling an analysis routine: argument setup,
	// register spills and the call itself. Paid per reported edge when a
	// tool is attached; the paper blames this overhead for most of TEA's
	// slowdown (§4).
	PerCall float64
}

// DefaultCostModel reflects Pin's published overheads: low single-digit
// percent per-block cost and tens of cycles per inlined-call analysis
// routine.
func DefaultCostModel() CostModel {
	return CostModel{
		PerInstr: 1,
		PerBlock: 2.8,
		JitBlock: 400,
		PerCall:  108,
	}
}

// Result summarizes one run under the engine.
type Result struct {
	// Steps is the StarDBT-style dynamic instruction count; PinSteps the
	// Pin-style count (REP iterations expanded).
	Steps    uint64
	PinSteps uint64
	// Blocks counts executed Pin blocks; StaticBlocks distinct ones.
	Blocks       uint64
	StaticBlocks int
	// Edges counts the branch edges reported to the tool.
	Edges uint64
	// EngineUnits is the simulated time of the engine itself (excluding
	// whatever work the tool does in its callbacks).
	EngineUnits float64
}

// Engine executes programs under instrumentation.
type Engine struct {
	cost CostModel
}

// New creates an Engine with the default cost model.
func New() *Engine { return &Engine{cost: DefaultCostModel()} }

// Run executes p to completion (or maxSteps; 0 = unbounded) with the tool
// attached; tool may be nil, which corresponds to Table 4's "Without
// Pintool" configuration.
func (en *Engine) Run(p *isa.Program, tool Tool, maxSteps uint64) (*Result, error) {
	return en.RunContext(context.Background(), p, tool, maxSteps)
}

// RunContext is Run with cancellation: a program that never halts cannot
// hang the caller when the context carries a deadline or is cancelled. On
// cancellation the tool still receives Fini with the unreported tail, the
// partial Result is returned, and the error is ctx.Err().
func (en *Engine) RunContext(ctx context.Context, p *isa.Program, tool Tool, maxSteps uint64) (*Result, error) {
	m := cpu.New(p)
	r := cfg.NewRunner(m, cfg.Pin)
	r.Arm(ctx, maxSteps)
	res := &Result{}
	jitted := make(map[uint64]bool)

	// Tools must see StarDBT-equivalent transitions (paper §4.1): the
	// engine executes Pin-split blocks internally, but every reported edge
	// is remapped onto the StarDBT block at the same head. Between two
	// reported edges there is no branch instruction, so the StarDBT block
	// decoded from the last reported head terminates exactly at the branch
	// that triggers the next report.
	sdCache := cfg.NewCache(p, cfg.StarDBT)
	var curSD *cfg.Block
	report := func(raw cfg.Edge, instrs uint64) error {
		var toSD *cfg.Block
		if raw.To != nil {
			var err error
			toSD, err = sdCache.BlockAt(raw.To.Head)
			if err != nil {
				return err
			}
		}
		res.Edges++
		tool.Edge(cfg.Edge{From: curSD, To: toSD, Taken: raw.Taken}, instrs)
		curSD = toSD
		return nil
	}

	var prevPin uint64
	var pending uint64 // Pin-counted instrs accumulated across split edges

	for {
		e, ok, err := r.Next()
		if err != nil {
			return nil, fmt.Errorf("pin: %w", err)
		}
		if !ok {
			break
		}

		pin := m.PinSteps()
		pending += pin - prevPin
		prevPin = pin

		if e.To != nil {
			res.Blocks++
			if !jitted[e.To.Head] {
				jitted[e.To.Head] = true
				res.EngineUnits += en.cost.JitBlock
			}
			res.EngineUnits += en.cost.PerBlock
		}

		if e.To == nil {
			// Program halted: the final edge flushes the trailing
			// instructions.
			if tool != nil {
				if err := report(e, pending); err != nil {
					return nil, err
				}
			}
			pending = 0
			break
		}

		// Report only the edges StarDBT would see: the initial entry and
		// branch edges. Pin's internal splits (REP, CPUID) merge into the
		// preceding block.
		if e.From == nil || e.From.Term.IsBranch() {
			if tool != nil {
				if err := report(e, pending); err != nil {
					return nil, err
				}
			}
			pending = 0
		}
	}

	if tool != nil {
		// pending is zero after a normal halt and carries the unreported
		// tail of a step-capped or cancelled run.
		tool.Fini(pending)
	}
	res.Steps = m.Steps()
	res.PinSteps = m.PinSteps()
	res.StaticBlocks = r.Cache().Len()
	res.EngineUnits += en.cost.PerInstr * float64(res.PinSteps)
	return res, r.Err()
}
