// Package dbt models a conventional dynamic binary translator in the mould
// of StarDBT [Wang et al. 2007], the baseline system of the paper's
// evaluation.
//
// The translator discovers dynamic basic blocks StarDBT-style (blocks start
// at branch targets and end at branches), translates each block once into a
// code cache, chains translated blocks, records hot traces with a pluggable
// selection strategy, and *replicates code* to materialize those traces —
// the representation whose memory cost the paper's Table 1 compares against
// TEA. Because traces are real code, executing them requires no transition
// function; the only costs are translation and recording, which is why the
// DBT columns of Tables 2-4 are fast.
package dbt

import (
	"context"
	"fmt"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/trace"
)

// CostModel carries the simulated per-event costs of the translator, in
// abstract units of one interpreted instruction. The defaults model a
// translation-based DBT: executing translated code is as fast as native
// code (cost 1 per instruction), translating a block costs a constant plus
// a per-instruction term, and recording a trace costs per TBB copied.
type CostModel struct {
	// PerInstr is the cost of executing one already-translated instruction.
	PerInstr float64
	// TranslateBlock is the one-time cost of translating a block.
	TranslateBlock float64
	// TranslatePerInstr is the per-instruction translation cost.
	TranslatePerInstr float64
	// DispatchCold is the dispatcher cost paid each time control enters a
	// block that is not yet chained to its predecessor.
	DispatchCold float64
	// RecordPerTBB is the cost of copying one TBB into a trace.
	RecordPerTBB float64
}

// DefaultCostModel returns costs representative of a lightweight
// same-ISA translator (StarDBT translates IA-32 to IA-32).
func DefaultCostModel() CostModel {
	return CostModel{
		PerInstr:          1,
		TranslateBlock:    60,
		TranslatePerInstr: 12,
		DispatchCold:      8,
		RecordPerTBB:      40,
	}
}

// BlockStubBytes is the per-block overhead the code cache pays for a
// translated basic block (chaining stubs and bookkeeping).
const BlockStubBytes = 10

// Result summarizes one program execution under the translator.
type Result struct {
	// Set holds the traces recorded during the run.
	Set *trace.Set
	// Info carries dynamic counts of the run.
	Info trace.RunInfo

	// BlockCacheBytes is the code cache spent on translated basic blocks.
	BlockCacheBytes uint64
	// CodeImage is the translated block code itself: every block's real
	// byte encoding plus its chaining stub, in translation order. Its
	// length equals BlockCacheBytes.
	CodeImage []byte
	// TraceBytes is the code-replication cost of the recorded traces — the
	// "DBT" column of Table 1.
	TraceBytes uint64

	// TraceInstrs counts dynamic instructions executed inside trace code
	// and Instrs all dynamic instructions (StarDBT counting: REP once).
	TraceInstrs uint64
	Instrs      uint64

	// TimeUnits is the simulated run time under the cost model.
	TimeUnits float64
}

// Coverage returns the fraction of dynamic instructions spent in traces
// (the DBT "Coverage" column of Tables 2 and 3).
func (r *Result) Coverage() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.TraceInstrs) / float64(r.Instrs)
}

func (r *Result) String() string {
	return fmt.Sprintf("dbt(%s: %d traces, %dB traces, coverage %.1f%%)",
		r.Set.Strategy, r.Set.Len(), r.TraceBytes, r.Coverage()*100)
}

// Translator executes programs under the modelled DBT.
type Translator struct {
	cost CostModel
}

// New creates a Translator with the default cost model.
func New() *Translator { return &Translator{cost: DefaultCostModel()} }

// Run executes p to completion (or maxSteps, 0 = unbounded), recording
// traces with the given strategy.
func (t *Translator) Run(p *isa.Program, strategy string, c trace.Config, maxSteps uint64) (*Result, error) {
	sel, ok := trace.NewStrategy(strategy, p, c)
	if !ok {
		return nil, fmt.Errorf("dbt: unknown strategy %q", strategy)
	}
	return t.RunWith(context.Background(), p, sel, maxSteps)
}

// RunWith executes p under the translator with an explicit selector. A
// program that never halts cannot hang the caller when ctx carries a
// deadline or is cancelled: the partial Result is returned alongside
// ctx.Err().
func (t *Translator) RunWith(ctx context.Context, p *isa.Program, sel trace.Strategy, maxSteps uint64) (*Result, error) {
	m := cpu.New(p)
	r := cfg.NewRunner(m, cfg.StarDBT)
	r.Arm(ctx, maxSteps)
	res := &Result{}

	translated := make(map[uint64]bool)
	// chained marks (pred terminator, succ head) pairs already patched so
	// the dispatcher is skipped on later executions.
	type chainKey struct {
		from uint64
		to   uint64
	}
	chained := make(map[chainKey]bool)

	// pos tracks execution through recorded trace code, mirroring how
	// translated trace code would run: enter at the trace head, follow
	// in-trace links, leave at side exits. Unlike the follower, which
	// stands in for the TEA the strategy reads, it keeps following traces
	// while one is being recorded.
	var pos *trace.TBB
	set := sel.Set()
	f := trace.Follower{Strategy: sel}

	var mark cpu.StepMark
	for {
		e, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}

		// Account the instructions of the block that just finished.
		instrs := mark.Delta(m.Steps())
		res.Instrs += instrs
		if pos != nil {
			res.TraceInstrs += instrs
		}

		if e.To == nil {
			f.Observe(e)
			break
		}
		res.Info.Edges++

		// Translation: first touch of a block pays the translator and
		// copies the block's code into the cache, followed by its stub.
		if !translated[e.To.Head] {
			translated[e.To.Head] = true
			res.TimeUnits += t.cost.TranslateBlock + t.cost.TranslatePerInstr*float64(e.To.NumInstrs)
			code, err := p.EncodeRange(e.To.Head, e.To.Term.Next())
			if err != nil {
				return nil, err
			}
			res.CodeImage = append(res.CodeImage, code...)
			res.CodeImage = append(res.CodeImage, make([]byte, BlockStubBytes)...)
			res.BlockCacheBytes += e.To.Bytes + BlockStubBytes
		}
		// Chaining: the first traversal of an edge goes through the
		// dispatcher, after which the edge is patched.
		if e.From != nil {
			k := chainKey{e.From.End, e.To.Head}
			if !chained[k] {
				chained[k] = true
				res.TimeUnits += t.cost.DispatchCold
			}
		}

		// Trace execution tracking.
		pos = set.Follow(pos, e.To.Head)

		// Trace recording (the DBT records while executing).
		before := set.NumTBBs()
		f.Observe(e)
		if after := set.NumTBBs(); after > before {
			res.TimeUnits += t.cost.RecordPerTBB * float64(after-before)
		}
	}

	res.Set = set
	res.Info.Steps = m.Steps()
	res.Info.PinSteps = m.PinSteps()
	res.Info.Blocks = r.Cache().Len()
	res.TraceBytes = set.CodeBytes()
	res.TimeUnits += t.cost.PerInstr * float64(res.Instrs)
	return res, r.Err()
}
