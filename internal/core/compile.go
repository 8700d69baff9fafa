package core

import "unsafe"

// The SoA split is only a win if the hot record really is a half cache line:
// two per 64-byte line, and the cold record no wider than the hot one. Break
// the build, not the benchmark, if a field addition upsets that.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(hotRec{})-32]  // hotRec exactly 32 bytes
	_ = [1]struct{}{}[32-unsafe.Sizeof(hotRec{})]  // (both directions)
	_ = [32]struct{}{}[unsafe.Sizeof(coldRec{})-1] // coldRec at most 32 bytes
)

// Compiled is a frozen Automaton lowered into contiguous flat arrays — the
// replay-side counterpart of Table 4's lookup ablation, taken to its
// logical end: no pointers chased per transition, no interface dispatch
// into the global container, and the per-state local caches of the paper's
// "Local" configurations embedded in the same arrays.
//
// Layout, indexed by StateID:
//
//   - off[s]..off[s+1] spans the state's in-trace transitions inside the
//     shared labels/targets arenas (the flattened State.labels/targets).
//   - hot and cold split each state's record structure-of-arrays style. The
//     hot record carries only what the in-trace fast path consumes — the two
//     inlined successor slots and the state's stride-table head — packed
//     into 32 bytes so two records share one cache line, doubling the
//     fast path's effective cache density over the old 64-byte combined
//     record. Trace states overwhelmingly have at most two successors — the
//     direct branch target and the fall-through — so the common transition
//     is two compares against adjacent words, no span lookup at all. States
//     with one transition duplicate it into both slots; states with none
//     park the impossible label in both.
//   - cold carries plausibleSuccessor's precomputed inputs (indirect flag,
//     branch target, fall-through address). It is touched only on a slot
//     miss — the desync check — so steady-state in-trace replay never pulls
//     its lines into cache at all.
//   - stride is the fused trace-cycle table built by Specialize (nil on an
//     unspecialized form): each entry is one steady-state cycle of the
//     automaton — k (label, instrs) edges returning to their anchor state —
//     that the batch kernels consume k edges at a time via one flat slice
//     comparison (specialize.go).
//   - ent is the entry table — the global container — as an open-addressed
//     hash with linear probing at <=50% load, key and value interleaved per
//     slot, replacing the EntryIndex interface on the frozen path.
//
// A Compiled is immutable after Compile and safe for concurrent readers;
// all mutable replay state (cursor, stats, local caches) lives in
// CompiledReplayer, which is what lets the replay pipeline shard one
// Compiled across goroutines without synchronization.
type Compiled struct {
	a *Automaton

	off     []uint32
	labels  []uint64
	targets []StateID

	hot    []hotRec
	cold   []coldRec
	stride []StrideEntry
	// strideProbe mirrors stride entry-for-entry with just the fields the
	// probe loop reads (first edge, length, links, chain link) — one compact
	// L1-resident array instead of a pointer chase per chain step.
	strideProbe []strideProbeRec

	ent      []entSlot
	entMask  uint64
	entShift uint8
	entLen   int

	// filt is a one-bit-per-hash presence filter in front of ent, sized to
	// ~12% load so it stays L1-resident. Cold-code labels — the common case
	// for lookups from NTE — miss here without touching the table. Same
	// multiply-shift hash as ent, so there are no false negatives.
	filt      []uint64
	filtShift uint8

	localSize int
	cfg       LookupConfig
}

// hotRec is the fast-path half of a state: the two inlined successor slots
// plus the head of the state's stride-entry chain (noStride when the state
// anchors no fused cycle). Exactly 32 bytes — two records per 64-byte cache
// line — so the stride check rides in what used to be padding and costs the
// in-trace path zero extra lines.
type hotRec struct {
	lab0, lab1 uint64
	tgt0, tgt1 StateID
	stride     int32
	_          [4]byte
}

// coldRec is the slot-miss half: plausibleSuccessor's precomputed inputs.
// Only the desync check reads it, so it stays out of the fast path's cache
// footprint entirely.
type coldRec struct {
	btgt  uint64
	fthru uint64
	flags uint8
	_     [7]byte
}

// noStride marks a state that anchors no stride entry and terminates
// stride-entry chains.
const noStride = int32(-1)

// entSlot is one open-addressed entry-table slot; val < 0 marks an empty
// slot (valid entry states are trace heads, never NTE).
type entSlot struct {
	key uint64
	val StateID
}

const (
	flagIndirect = 1 << iota
	flagBranch
	flagFallThru
)

// impossibleLabel fills unused fast slots. Block heads are instruction
// addresses inside the program image; a stream producer would fault before
// emitting an edge to the all-ones address, so it can never arrive as a
// label.
const impossibleLabel = ^uint64(0)

// fibHash is the 64-bit Fibonacci multiplier for the entry table's
// multiply-shift hash.
const fibHash = 0x9E3779B97F4A7C15

// Compile freezes a into its flat form. Only cfg.Local and cfg.LocalSize
// matter: the global container is always the open-addressed entry table
// (cfg.Global selects among the interface-dispatched containers the
// reference Replayer keeps for differential testing). The automaton must
// not be mutated afterwards; the online recorder keeps using the reference
// replayer, whose container supports incremental AddEntry.
func Compile(a *Automaton, cfg LookupConfig) *Compiled {
	cfg = cfg.withDefaults()
	n := a.NumStates()
	c := &Compiled{
		a:       a,
		cfg:     cfg,
		off:     make([]uint32, n+1),
		hot:     make([]hotRec, n),
		cold:    make([]coldRec, n),
		labels:  make([]uint64, 0, a.NumTrans()),
		targets: make([]StateID, 0, a.NumTrans()),
	}
	if cfg.Local {
		c.localSize = cfg.LocalSize
	}

	for i := 0; i < n; i++ {
		s := a.states[i]
		c.off[i] = uint32(len(c.labels))
		c.labels = append(c.labels, s.labels...)
		c.targets = append(c.targets, s.targets...)

		rec := hotRec{lab0: impossibleLabel, lab1: impossibleLabel, stride: noStride}
		switch {
		case len(s.labels) >= 2:
			rec.lab0, rec.tgt0 = s.labels[0], s.targets[0]
			rec.lab1, rec.tgt1 = s.labels[1], s.targets[1]
		case len(s.labels) == 1:
			rec.lab0, rec.tgt0 = s.labels[0], s.targets[0]
			rec.lab1, rec.tgt1 = rec.lab0, rec.tgt0
		}

		var cr coldRec
		if s.TBB != nil {
			term := s.TBB.Block.Term
			if term.IsIndirect() {
				cr.flags |= flagIndirect
			} else if term.IsBranch() {
				cr.flags |= flagBranch
				cr.btgt = term.Target
			}
			if ft, ok := s.TBB.Block.FallThrough(); ok {
				cr.flags |= flagFallThru
				cr.fthru = ft
			}
		}
		c.hot[i] = rec
		c.cold[i] = cr
	}
	c.off[n] = uint32(len(c.labels))

	c.buildEntryTable(a.Entries())
	return c
}

// buildEntryTable sizes the open-addressed table to at most 50% load (a
// power of two, so probing wraps with a mask) and inserts every entry.
func (c *Compiled) buildEntryTable(entries []Entry) {
	size := 8
	for size < 2*len(entries) {
		size <<= 1
	}
	c.ent = make([]entSlot, size)
	for i := range c.ent {
		c.ent[i].val = -1
	}
	c.entMask = uint64(size - 1)
	shift := uint8(64)
	for s := size; s > 1; s >>= 1 {
		shift--
	}
	c.entShift = shift
	bits := 512
	for bits < 8*len(entries) {
		bits <<= 1
	}
	c.filt = make([]uint64, bits/64)
	fshift := uint8(64)
	for b := bits; b > 1; b >>= 1 {
		fshift--
	}
	c.filtShift = fshift
	for _, e := range entries {
		h := e.Addr * fibHash
		i := h >> c.entShift
		for c.ent[i].val >= 0 {
			i = (i + 1) & c.entMask
		}
		c.ent[i] = entSlot{key: e.Addr, val: e.State}
		bit := h >> c.filtShift
		c.filt[bit>>6] |= 1 << (bit & 63)
	}
	c.entLen = len(entries)
}

// Automaton returns the automaton this compiled form was frozen from.
func (c *Compiled) Automaton() *Automaton { return c.a }

// Config returns the lookup configuration the form was compiled with.
func (c *Compiled) Config() LookupConfig { return c.cfg }

// NumStates returns the state count including NTE.
func (c *Compiled) NumStates() int { return len(c.hot) }

// Specialized reports whether the form carries a fused trace-cycle stride
// table (built by Specialize).
func (c *Compiled) Specialized() bool { return len(c.stride) > 0 }

// NumStrideEntries returns the size of the stride table (0 when the form is
// unspecialized).
func (c *Compiled) NumStrideEntries() int { return len(c.stride) }

// NumEntries returns the number of trace entries in the flat entry table.
func (c *Compiled) NumEntries() int { return c.entLen }

// LocalSize returns the embedded per-state cache size (0 = caches off).
func (c *Compiled) LocalSize() int { return c.localSize }

// next resolves an in-trace transition: the two inlined fast slots first,
// then the remainder of the state's span (only states with more than two
// transitions — indirect-branch TBBs — ever reach the scan).
func (c *Compiled) next(s StateID, label uint64) (StateID, bool) {
	rec := &c.hot[s]
	if rec.lab0 == label {
		return rec.tgt0, true
	}
	if rec.lab1 == label {
		return rec.tgt1, true
	}
	return c.nextSlow(s, label)
}

// entry resolves a trace entry address against the flat entry table. The
// presence filter answers most cold-code misses from L1 before the table's
// slots are touched at all.
func (c *Compiled) entry(addr uint64) (StateID, bool) {
	h := addr * fibHash
	bit := h >> c.filtShift
	if c.filt[bit>>6]&(1<<(bit&63)) == 0 {
		return NTE, false
	}
	i := h >> c.entShift
	for {
		e := c.ent[i]
		if e.val < 0 {
			return NTE, false
		}
		if e.key == addr {
			return e.val, true
		}
		i = (i + 1) & c.entMask
	}
}

// entryProbes is entry with probe accounting: it additionally reports how
// many table slots the search inspected (0 when the presence filter
// rejected the address without touching the table). Only the
// observability-enabled paths call it; the plain entry stays branch-lean
// for the disabled fast path.
func (c *Compiled) entryProbes(addr uint64) (StateID, bool, uint64) {
	h := addr * fibHash
	bit := h >> c.filtShift
	if c.filt[bit>>6]&(1<<(bit&63)) == 0 {
		return NTE, false, 0
	}
	i := h >> c.entShift
	probes := uint64(0)
	for {
		probes++
		e := c.ent[i]
		if e.val < 0 {
			return NTE, false, probes
		}
		if e.key == addr {
			return e.val, true, probes
		}
		i = (i + 1) & c.entMask
	}
}

// plausible mirrors plausibleSuccessor on the precomputed per-state fields:
// control leaving the record's block can arrive at label only via the branch
// target, the fall-through, or anywhere after an indirect terminator.
func (rec *coldRec) plausible(label uint64) bool {
	f := rec.flags
	if f&flagIndirect != 0 {
		return true
	}
	if f&flagBranch != 0 && label == rec.btgt {
		return true
	}
	return f&flagFallThru != 0 && label == rec.fthru
}

// plausible resolves the state's cold record; the hot loops index the cold
// array directly on their miss paths instead.
func (c *Compiled) plausible(s StateID, label uint64) bool {
	return c.cold[s].plausible(label)
}
