// Package trace defines the trace model of the paper (§3, Definitions 1-3)
// and implements the three trace-selection strategies evaluated in §4:
// MRET (Most Recently Executed Tail, the Dynamo/NET strategy), TT (Trace
// Trees) and CTT (Compact Trace Trees), plus MFET (Most Frequently Executed
// Tail) as an extension.
//
// A Trace is a collection of Trace Basic Blocks (TBBs) and the control-flow
// edges between them (Definition 3). A TBB is one *instance* of a dynamic
// basic block inside a trace (Definition 2): the same block may appear in
// several traces, or several times in one trace tree, and each occurrence
// is a distinct TBB — that distinction is exactly what TEA's states encode.
package trace

import (
	"fmt"
	"sort"

	"github.com/lsc-tea/tea/internal/cfg"
)

// ID numbers a trace within its Set, starting at 1 (to read like the
// paper's T1, T2, ...).
type ID int32

// TBB is one instance of a basic block inside a trace (Definition 2).
type TBB struct {
	// Trace owns this TBB.
	Trace *Trace
	// Index is the position of this TBB in Trace.TBBs.
	Index int
	// Block is the underlying dynamic basic block.
	Block *cfg.Block
	// Succs maps a successor block head address to the in-trace TBB that
	// instance of the block flows to. A TBB has at most one successor per
	// label, keeping the automaton deterministic.
	Succs map[uint64]*TBB
}

// Name renders the paper's $$Ti.block notation, using the program symbol
// for the block head when one exists.
func (t *TBB) Name() string {
	sym, ok := t.Trace.prog.SymbolFor(t.Block.Head)
	if !ok {
		sym = fmt.Sprintf("0x%x", t.Block.Head)
	}
	return fmt.Sprintf("$$T%d.%s", t.Trace.ID, sym)
}

func (t *TBB) String() string { return t.Name() }

// Link records that this TBB flows to succ when control reaches succ's
// block head. Linking is idempotent for the same label and requires succ to
// belong to the same trace: cross-trace transfers are resolved through the
// entry table instead, so linking across traces is rejected with an error.
// Callers that construct both TBBs themselves (the selection strategies)
// may use mustLink, which turns the same check into an invariant.
//
// Every effective link (a new label, or a label rebound to a different
// TBB) is appended to the trace's change log, which is what lets
// core.Automaton.SyncTrace apply an N-TBB trace extension as a delta
// instead of rebuilding every state's transition table.
func (t *TBB) Link(succ *TBB) error {
	if succ.Trace != t.Trace {
		return fmt.Errorf("trace: cannot link %v -> %v across traces", t, succ)
	}
	label := succ.Block.Head
	if t.Succs == nil {
		t.Succs = make(map[uint64]*TBB, 2)
	} else if old, ok := t.Succs[label]; ok && old == succ {
		// No-op relink: the successor table and the change log both
		// already describe this edge.
		return nil
	}
	t.Succs[label] = succ
	t.Trace.links = append(t.Trace.links, LinkEvent{From: t, Label: label, To: succ})
	return nil
}

// mustLink links two TBBs the caller just created inside the same trace.
// The same-trace property is a true internal invariant there (both ends
// come from the same Append/NewTrace sequence), so a violation is a bug in
// this package and panics rather than returning an error.
func mustLink(from, to *TBB) {
	if err := from.Link(to); err != nil {
		panic("trace: " + err.Error())
	}
}

// SuccLabels returns the in-trace successor labels in ascending order.
func (t *TBB) SuccLabels() []uint64 {
	out := make([]uint64, 0, len(t.Succs))
	for a := range t.Succs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LinkEvent is one effective mutation of a TBB's successor table: From
// gained (or rebound) the transition on Label toward To. The per-trace log
// of these events is the delta feed for incremental automaton
// synchronization: replaying a trace's log from the beginning reproduces
// exactly the successor tables its TBBs hold now.
type LinkEvent struct {
	From  *TBB
	Label uint64
	To    *TBB
}

// Trace is a recorded hot-code region (Definition 3): a superblock for
// MRET/MFET, a tree for TT/CTT.
type Trace struct {
	ID   ID
	TBBs []*TBB

	prog programSymbols
	set  *Set
	// links is the append-only change log of every effective Link call on
	// this trace's TBBs, in application order.
	links []LinkEvent
}

// programSymbols is the slice of isa.Program the trace model needs; it
// keeps this package decoupled from program construction.
type programSymbols interface {
	SymbolFor(addr uint64) (string, bool)
}

// Head returns the entry TBB. Every trace is entered only at its head.
func (t *Trace) Head() *TBB { return t.TBBs[0] }

// EntryAddr returns the program address that starts the trace.
func (t *Trace) EntryAddr() uint64 { return t.TBBs[0].Block.Head }

// Len returns the number of TBBs.
func (t *Trace) Len() int { return len(t.TBBs) }

// Instrs returns the total static instruction count across TBBs (counting
// duplicated instances separately, as code replication would).
func (t *Trace) Instrs() int {
	n := 0
	for _, b := range t.TBBs {
		n += b.Block.NumInstrs
	}
	return n
}

// CodeBytes returns the bytes of code replication this trace costs a
// conventional DBT: every TBB instance is a fresh copy of its block.
func (t *Trace) CodeBytes() uint64 {
	var n uint64
	for _, b := range t.TBBs {
		n += b.Block.Bytes
	}
	return n
}

// LinkLog returns the trace's append-only link change log. Consumers that
// mirror the trace (core.Automaton.SyncTrace) remember how much of the log
// they have applied and replay only the tail on the next sync; the log is
// never truncated or reordered, so a suffix is always a valid delta.
func (t *Trace) LinkLog() []LinkEvent { return t.links }

// Append adds a fresh TBB instance for block at the tail of the trace.
// TBBs of traces that belong to a Set are slab-allocated from the set's
// pool, so online recording costs one heap allocation per slab of TBBs
// rather than one per TBB.
func (t *Trace) Append(b *cfg.Block) *TBB {
	var tbb *TBB
	if t.set != nil {
		tbb = t.set.allocTBB()
	} else {
		tbb = new(TBB)
	}
	tbb.Trace = t
	tbb.Index = len(t.TBBs)
	tbb.Block = b
	t.TBBs = append(t.TBBs, tbb)
	if t.set != nil {
		t.set.numTBBs++
	}
	return tbb
}

// FindByBlock returns every TBB instance of the block headed at addr.
func (t *Trace) FindByBlock(addr uint64) []*TBB {
	var out []*TBB
	for _, b := range t.TBBs {
		if b.Block.Head == addr {
			out = append(out, b)
		}
	}
	return out
}

func (t *Trace) String() string {
	return fmt.Sprintf("T%d(entry=0x%x, %d TBBs)", t.ID, t.EntryAddr(), len(t.TBBs))
}

// Set is the collection of traces recorded for one program run.
type Set struct {
	Strategy string
	Traces   []*Trace

	prog    programSymbols
	byEntry map[uint64]*Trace

	// slab is the current TBB allocation slab; TBB pointers are stable for
	// the life of the set (slabs are abandoned when full, never resized).
	slab []TBB

	// numTBBs counts TBB instances across the set's traces, maintained by
	// Append: the selection strategies consult the total on their per-edge
	// paths (the MaxSetBlocks guard), which must not walk every trace.
	numTBBs int
}

// tbbSlab is the number of TBB instances carved from one heap allocation.
const tbbSlab = 64

// allocTBB hands out the next pooled TBB.
func (s *Set) allocTBB() *TBB {
	if len(s.slab) == cap(s.slab) {
		s.slab = make([]TBB, 0, tbbSlab)
	}
	s.slab = append(s.slab, TBB{})
	return &s.slab[len(s.slab)-1]
}

// NewSet creates an empty set; prog supplies symbol names for rendering and
// may be nil.
func NewSet(strategy string, prog programSymbols) *Set {
	if prog == nil {
		prog = noSymbols{}
	}
	return &Set{Strategy: strategy, prog: prog, byEntry: make(map[uint64]*Trace)}
}

type noSymbols struct{}

func (noSymbols) SymbolFor(uint64) (string, bool) { return "", false }

// SymbolFor delegates to the set's program, letting a Set serve as the
// symbol source for sets derived from it (trace duplication and the like).
func (s *Set) SymbolFor(addr uint64) (string, bool) { return s.prog.SymbolFor(addr) }

// NewTrace allocates the next trace, entered at head. At most one trace may
// be anchored at a given entry address; NewTrace returns an error on a
// duplicate entry.
func (s *Set) NewTrace(head *cfg.Block) (*Trace, error) {
	if old, ok := s.byEntry[head.Head]; ok {
		return nil, fmt.Errorf("trace: entry 0x%x already anchors %s", head.Head, old)
	}
	t := &Trace{ID: ID(len(s.Traces) + 1), prog: s.prog, set: s}
	t.Append(head)
	s.Traces = append(s.Traces, t)
	s.byEntry[head.Head] = t
	return t, nil
}

// ByEntry returns the trace anchored at addr, if any.
func (s *Set) ByEntry(addr uint64) (*Trace, bool) {
	t, ok := s.byEntry[addr]
	return t, ok
}

// Follow steps execution from pos (nil: cold code) into the block at head:
// pos's in-trace successor, else the head of the trace anchored at head,
// else nil.
func (s *Set) Follow(pos *TBB, head uint64) *TBB {
	if pos != nil {
		if next, ok := pos.Succs[head]; ok {
			return next
		}
	}
	if t, ok := s.byEntry[head]; ok {
		return t.Head()
	}
	return nil
}

// Len returns the number of traces.
func (s *Set) Len() int { return len(s.Traces) }

// NumTBBs returns the total TBB instances across all traces.
func (s *Set) NumTBBs() int { return s.numTBBs }

// Entries returns every trace entry address in ascending order.
func (s *Set) Entries() []uint64 {
	out := make([]uint64, 0, len(s.byEntry))
	for a := range s.byEntry {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CodeBytes returns the total code-replication cost of the set: the bytes a
// conventional DBT spends materializing the traces as executable code —
// one fresh copy of every TBB's instructions, a stub per side exit, and a
// per-trace entry/epilogue. This is the "DBT" column of Table 1.
func (s *Set) CodeBytes() uint64 {
	var n uint64
	for _, t := range s.Traces {
		n += t.CodeBytes() + TraceOverheadBytes
		for _, b := range t.TBBs {
			n += exitStubBytes(b)
		}
	}
	return n
}

// ExitStubBytes is the modelled cost of one trace-exit stub: the trampoline
// a DBT emits so a side exit can spill the exit identity and transfer back
// to the dispatcher (or be patched later to link traces). StarDBT-style
// stubs are a push-immediate plus a near jump with alignment padding.
const ExitStubBytes = 12

// TraceOverheadBytes is the modelled per-trace entry/epilogue cost a DBT
// pays once per trace (entry-point registration and prologue).
const TraceOverheadBytes = 16

// exitStubBytes charges one stub per potential off-trace successor of the
// TBB: a conditional terminator has two successors, an unconditional one,
// and every successor not linked inside the trace needs a stub.
func exitStubBytes(b *TBB) uint64 {
	succs := 1
	if b.Block.Term.IsCondBranch() {
		succs = 2
	}
	inTrace := len(b.Succs)
	if inTrace > succs {
		inTrace = succs
	}
	return uint64(succs-inTrace) * ExitStubBytes
}

func (s *Set) String() string {
	return fmt.Sprintf("Set(%s, %d traces, %d TBBs)", s.Strategy, len(s.Traces), s.NumTBBs())
}
