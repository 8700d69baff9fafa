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
//     hot record carries only what the fast path consumes — the two inlined
//     successor slots and the state's stride-table head — packed into 32
//     bytes so two records share one cache line, doubling the fast path's
//     effective cache density over the old 64-byte combined record.
//   - A state whose block ends in a direct terminator gets a complete
//     successor row: its two slots hold the only labels plausibleSuccessor
//     admits off that block (branch target, fall-through), each resolved
//     at Compile time to its target and a kind — in-trace hit, entry-table
//     link, or exit to NTE. On an immutable image those resolutions are a
//     pure function of the state, so the memoryless kernels resolve every
//     in-sync edge off such a state with the row alone: no in-trace/exit
//     branch and no entry-table probe (DESIGN.md §16). Any other label off
//     a row state is a desync. The TEA form of a DBT's block linking.
//   - Every other state — NTE, an indirect terminator, or an in-trace label
//     that is neither the branch target nor the fall-through — keeps the
//     span-head slots (first two span transitions, a single one duplicated
//     into both, the impossible label parked in both when there are none),
//     all of kind in-trace, and resolves its misses through the span tail
//     and the entry table.
//   - cold carries plausibleSuccessor's precomputed inputs (indirect flag,
//     branch target, fall-through address). It is touched only on a slot
//     miss — the desync check — so steady-state in-sync replay never pulls
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

// hotRec is the fast-path half of a state: the two inlined successor slots,
// each with its slot kind, plus the head of the state's stride-entry chain
// (noStride when the state anchors no fused cycle). Exactly 32 bytes — two
// records per 64-byte cache line — so the stride check and the kinds ride
// in what used to be padding and cost the fast path zero extra lines.
type hotRec struct {
	lab0, lab1   uint64
	tgt0, tgt1   StateID
	stride       int32
	kind0, kind1 slotKind
	_            [2]byte
}

// slotKind says what consuming a slot's label charges. The values are
// chosen so a kernel charges a matched slot without branching on it: bit 0
// is set exactly for a link, bit 1 exactly for an exit, and either bit
// means one entry-table lookup.
type slotKind uint8

const (
	slotTrace slotKind = 0 // in-trace hit: InTraceHits
	slotLink  slotKind = 1 // entry-table link: GlobalLookups, GlobalHits, TraceLinks
	slotExit  slotKind = 2 // exit to NTE: GlobalLookups, TraceExits
)

// coldRec is the slot-miss half: plausibleSuccessor's precomputed inputs.
// Only the desync check reads it, so it stays out of the fast path's cache
// footprint entirely.
type coldRec struct {
	btgt  uint64
	fthru uint64
	flags uint8
	_     [7]byte
}

// pick selects the slot label can match — slot 0 when its label is label,
// else slot 1 — so the caller decides hit or miss with one compare of the
// returned label. The select is a mask, not a branch, since which slot an
// edge takes is as unpredictable as the guest's branches; step uses it.
func (rec *hotRec) pick(label uint64) (uint64, StateID, slotKind) {
	var hit0 uint64
	if rec.lab0 == label {
		hit0 = 1
	}
	m := -hit0 // all ones when slot 0 matches
	lab := rec.lab1 ^ (rec.lab0^rec.lab1)&m
	tgt := rec.tgt1 ^ (rec.tgt0^rec.tgt1)&StateID(m)
	kind := rec.kind1 ^ (rec.kind0^rec.kind1)&slotKind(m)
	return lab, tgt, kind
}

// pickBranch is pick as a branch, for the kernels that branch on the kind
// anyway: step's obsOn instance, and the batch kernels once a label has
// missed both in-trace slots. In the batch kernels the mask measured 30–35%
// slower on the slot-stable 901.steady and 902.stream streams and no
// faster on 176.gcc (DESIGN.md §16).
func (rec *hotRec) pickBranch(label uint64) (uint64, StateID, slotKind) {
	if rec.lab0 == label {
		return rec.lab0, rec.tgt0, rec.kind0
	}
	return rec.lab1, rec.tgt1, rec.kind1
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

	// The rows resolve links through the entry table, so it comes first.
	c.buildEntryTable(a.Entries())
	for i := 0; i < n; i++ {
		s := a.states[i]
		c.off[i] = uint32(len(c.labels))
		c.labels = append(c.labels, s.labels...)
		c.targets = append(c.targets, s.targets...)

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
		rec, ok := c.row(s, &cr)
		if !ok {
			rec = spanSlots(s)
		}
		rec.stride = noStride
		c.hot[i] = rec
		c.cold[i] = cr
	}
	c.off[n] = uint32(len(c.labels))
	return c
}

// row builds s's complete successor row from its cold record: slot 0 the
// branch target, slot 1 the fall-through, a missing one duplicating the
// other. ok is false — the state keeps its span-head slots — when s is NTE,
// ends in an indirect terminator, has neither successor, or has an
// in-trace label outside the pair.
func (c *Compiled) row(s *State, cr *coldRec) (hotRec, bool) {
	if s.TBB == nil || cr.flags&flagIndirect != 0 || cr.flags&(flagBranch|flagFallThru) == 0 {
		return hotRec{}, false
	}
	for _, l := range s.labels {
		if !cr.plausible(l) {
			return hotRec{}, false
		}
	}
	var rec hotRec
	switch {
	case cr.flags&flagBranch == 0:
		rec.lab0, rec.tgt0, rec.kind0 = c.resolve(s, cr.fthru)
		rec.lab1, rec.tgt1, rec.kind1 = rec.lab0, rec.tgt0, rec.kind0
	case cr.flags&flagFallThru == 0:
		rec.lab0, rec.tgt0, rec.kind0 = c.resolve(s, cr.btgt)
		rec.lab1, rec.tgt1, rec.kind1 = rec.lab0, rec.tgt0, rec.kind0
	default:
		rec.lab0, rec.tgt0, rec.kind0 = c.resolve(s, cr.btgt)
		rec.lab1, rec.tgt1, rec.kind1 = c.resolve(s, cr.fthru)
	}
	return rec, true
}

// resolve is the memoryless transition on a plausible label off s, frozen
// into a row slot: the in-trace target, else the entry table's answer.
func (c *Compiled) resolve(s *State, label uint64) (uint64, StateID, slotKind) {
	if t, ok := s.Next(label); ok {
		return label, t, slotTrace
	}
	if t, ok := c.entry(label); ok {
		return label, t, slotLink
	}
	return label, NTE, slotExit
}

// spanSlots fills the fallback slots from the head of s's span: the first
// two transitions, a single one duplicated into both, the impossible label
// in both when there are none. Every slot is an in-trace hit.
func spanSlots(s *State) hotRec {
	rec := hotRec{lab0: impossibleLabel, lab1: impossibleLabel}
	switch {
	case len(s.labels) >= 2:
		rec.lab0, rec.tgt0 = s.labels[0], s.targets[0]
		rec.lab1, rec.tgt1 = s.labels[1], s.targets[1]
	case len(s.labels) == 1:
		rec.lab0, rec.tgt0 = s.labels[0], s.targets[0]
		rec.lab1, rec.tgt1 = rec.lab0, rec.tgt0
	}
	return rec
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

// LocalSize returns the embedded per-state cache size (0 = caches off).
func (c *Compiled) LocalSize() int { return c.localSize }

// next resolves an in-trace transition: the two inlined fast slots of kind
// in-trace first, then the remainder of the state's span (only states with
// more than two transitions — indirect-branch TBBs — ever reach the scan).
// A row's link and exit slots are not in-trace transitions.
func (c *Compiled) next(s StateID, label uint64) (StateID, bool) {
	rec := &c.hot[s]
	if rec.lab0 == label && rec.kind0 == slotTrace {
		return rec.tgt0, true
	}
	if rec.lab1 == label && rec.kind1 == slotTrace {
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
