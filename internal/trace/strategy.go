package trace

import (
	"context"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
)

// Config carries the knobs shared by all selection strategies.
type Config struct {
	// HotThreshold is the execution count at which a candidate trace head
	// becomes hot (Dynamo used ~50).
	HotThreshold int
	// MaxTraceBlocks bounds a linear (MRET/MFET) trace.
	MaxTraceBlocks int
	// MaxTreeBlocks bounds one trace tree (TT/CTT); once a tree reaches the
	// bound it is frozen and no longer extended.
	MaxTreeBlocks int
	// MaxSetBlocks bounds the total TBBs in the set; once reached, no new
	// traces or extensions are recorded. Zero selects the default; a
	// negative value means unbounded.
	MaxSetBlocks int
}

// DefaultConfig mirrors common DBT defaults (Dynamo's threshold of 50).
func DefaultConfig() Config {
	return Config{
		HotThreshold:   50,
		MaxTraceBlocks: 64,
		MaxTreeBlocks:  2048,
		MaxSetBlocks:   1 << 20,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.HotThreshold <= 0 {
		c.HotThreshold = d.HotThreshold
	}
	if c.MaxTraceBlocks <= 0 {
		c.MaxTraceBlocks = d.MaxTraceBlocks
	}
	if c.MaxTreeBlocks <= 0 {
		c.MaxTreeBlocks = d.MaxTreeBlocks
	}
	switch {
	case c.MaxSetBlocks == 0:
		c.MaxSetBlocks = d.MaxSetBlocks
	case c.MaxSetBlocks < 0:
		c.MaxSetBlocks = 0 // unbounded
	}
	return c
}

// Strategy is a trace-selection policy consuming the dynamic edge stream.
// Implementations accumulate finished traces into their Set.
type Strategy interface {
	// Name identifies the strategy ("mret", "tt", "ctt", "mfet").
	Name() string
	// Observe consumes one edge; exit reports that the caller's TEA
	// transition on it left a trace for cold code (trace state → NTE). It
	// returns the trace completed or extended at this edge, or nil, so an
	// online consumer (Algorithm 2's recorder) can sync incrementally.
	Observe(e cfg.Edge, exit bool) *Trace
	// Recording reports whether a trace is currently under construction —
	// Algorithm 2's Creating state.
	Recording() bool
	// Set returns the traces recorded so far.
	Set() *Set
}

// NewStrategy constructs a strategy by name.
func NewStrategy(name string, prog programSymbols, c Config) (Strategy, bool) {
	switch name {
	case "mret":
		return NewMRET(prog, c), true
	case "tt":
		return NewTT(prog, c), true
	case "ctt":
		return NewCTT(prog, c), true
	case "mfet":
		return NewMFET(prog, c), true
	}
	return nil, false
}

// StrategyNames lists the strategies evaluated in the paper's Table 1 plus
// the MFET extension, in the paper's column order.
func StrategyNames() []string { return []string{"mret", "ctt", "tt"} }

// RunInfo summarizes one recorded execution.
type RunInfo struct {
	// Steps counts dynamic instructions StarDBT-style (REP ops once).
	Steps uint64
	// PinSteps counts dynamic instructions Pin-style (REP iterations).
	PinSteps uint64
	// Edges counts block-to-block transitions.
	Edges uint64
	// Blocks is the number of distinct dynamic blocks discovered.
	Blocks int
}

// Record resets the machine, runs it to completion under the given block
// discipline, and feeds every edge to the strategy. It returns the recorded
// trace set. maxSteps caps the run (0 = unbounded); a cancelled ctx stops it
// early, returning the partial set and run info alongside ctx.Err().
func Record(ctx context.Context, m *cpu.Machine, style cfg.Style, s Strategy, maxSteps uint64) (*Set, *RunInfo, error) {
	r := cfg.NewRunner(m, style)
	r.Arm(ctx, maxSteps)
	f := Follower{Strategy: s}
	info := &RunInfo{}
	for {
		e, ok, err := r.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		if e.From != nil {
			info.Edges++
		}
		f.Observe(e)
	}
	info.Steps = m.Steps()
	info.PinSteps = m.PinSteps()
	info.Blocks = r.Cache().Len()
	return s.Set(), info, r.Err()
}

// Follower feeds a strategy from a run with no TEA (offline recording, the
// DBT model), deriving exit by walking the set. Like the recorder's TEA
// cursor, it stands still while the strategy records.
//
// It needs no reset to cold code when recording starts: its cursor is
// already there whenever the cursor matters. Only MRET reads exit, and MRET
// starts recording only on a taken backward branch or a trace exit. An exit
// leaves the cursor at nil. A taken backward branch follows an in-trace
// link only to a trace head, since MRET ends a trace unlinked at any other
// backward branch, and MRET starts no trace at an existing head. The trees
// and MFET ignore exit.
type Follower struct {
	Strategy Strategy
	pos      *TBB
}

// Observe passes e and its derived exit to the strategy's Observe.
func (f *Follower) Observe(e cfg.Edge) *Trace {
	s, exit := f.Strategy, false
	if e.To != nil && !s.Recording() {
		next := s.Set().Follow(f.pos, e.To.Head)
		exit, f.pos = f.pos != nil && next == nil, next
	}
	return s.Observe(e, exit)
}

// backwardTaken reports whether the edge is a taken direct branch to an
// address at or before the branch: the loop back-edges MRET and the tree
// strategies key on.
func backwardTaken(e cfg.Edge) bool {
	if e.From == nil || e.To == nil || !e.Taken {
		return false
	}
	t := e.From.Term
	if t.IsIndirect() || !t.IsBranch() || t.IsCall() {
		return false
	}
	return t.Target <= t.Addr
}
