package core

// Audit accessors: the read-only structural surface internal/verify inspects
// to prove paper invariants without replaying. Everything here returns
// copies (or goes through the production lookup code), so a verifier can
// never perturb the representation it is auditing, and the hot replay paths
// stay untouched.

import "unsafe"

// Labels returns a copy of the state's in-trace transition labels in table
// order (sorted ascending by construction).
func (s *State) Labels() []uint64 {
	out := make([]uint64, len(s.labels))
	copy(out, s.labels)
	return out
}

// Targets returns a copy of the state's in-trace transition targets,
// parallel to Labels.
func (s *State) Targets() []StateID {
	out := make([]StateID, len(s.targets))
	copy(out, s.targets)
	return out
}

// ImpossibleLabel is the sentinel that fills unused inline fast slots of a
// compiled state record; no stream producer can emit it as a label.
const ImpossibleLabel = impossibleLabel

// FibHash is the multiply-shift hash multiplier shared by the compiled
// entry table and its presence filter, exported so the verifier can prove
// slot placement and filter coverage on an audit snapshot.
const FibHash = fibHash

// Audit flag bits mirroring the compiled cold-record plausibility flags.
const (
	AuditFlagIndirect = flagIndirect
	AuditFlagBranch   = flagBranch
	AuditFlagFallThru = flagFallThru
)

// Audit slot kinds mirroring the compiled hot record's: what consuming a
// slot's label charges.
const (
	AuditSlotTrace = uint8(slotTrace)
	AuditSlotLink  = uint8(slotLink)
	AuditSlotExit  = uint8(slotExit)
)

// HotRecSize and ColdRecSize expose the compiled record geometry for the
// verifier's C-SOA layout rule: the hot record must stay exactly half a
// 64-byte cache line, the cold record no wider than the hot one.
const (
	HotRecSize  = int(unsafe.Sizeof(hotRec{}))
	ColdRecSize = int(unsafe.Sizeof(coldRec{}))
)

// NoStride is the sentinel stride index of a state that anchors no fused
// cycle (and the chain terminator in StrideEntry.Next).
const NoStride = noStride

// MaxStrideLen is the longest admissible fused-cycle pattern, exported so
// the verifier can bound decoded tables with the same constant Specialize
// enforces.
const MaxStrideLen = maxStrideLen

// StateAudit is the audit view of one compiled state record — the hot and
// cold halves of the SoA split recombined.
type StateAudit struct {
	Lab0, Lab1 uint64
	Tgt0, Tgt1 StateID
	// Kind0 and Kind1 are the slots' kinds (AuditSlotTrace, AuditSlotLink,
	// AuditSlotExit); only a complete successor row holds the latter two.
	Kind0, Kind1 uint8
	// Stride is the head of the state's stride-entry chain (NoStride when
	// the state anchors no fused cycle).
	Stride int32
	Flags  uint8
	// BranchTarget and FallThrough are plausibleSuccessor's precomputed
	// inputs (valid when the corresponding flag bit is set, zero otherwise).
	BranchTarget uint64
	FallThrough  uint64
}

// EntrySlotAudit is the audit view of one open-addressed entry-table slot;
// Val < 0 marks an empty slot.
type EntrySlotAudit struct {
	Key uint64
	Val StateID
}

// CompiledAudit is a deep-copied structural snapshot of a Compiled's flat
// layout. The verifier checks arena bounds, fast-slot consistency,
// entry-table placement and filter coverage against it; tests corrupt a
// snapshot to prove the rules fire.
type CompiledAudit struct {
	// Off/Labels/Targets are the transition arenas: Off[s]..Off[s+1] spans
	// state s inside Labels/Targets.
	Off     []uint32
	Labels  []uint64
	Targets []StateID
	// States are the recombined hot+cold records, one per state.
	States []StateAudit
	// Stride is the fused trace-cycle table (empty when unspecialized),
	// deep-copied entry by entry.
	Stride []StrideEntry
	// Ent is the open-addressed entry table with its probe parameters.
	Ent      []EntrySlotAudit
	EntMask  uint64
	EntShift uint8
	EntLen   int
	// Filt is the presence bitmap fronting Ent.
	Filt      []uint64
	FiltShift uint8
	// LocalSize is the embedded per-state cache size (0 = caches off).
	LocalSize int
}

// Audit snapshots the compiled form for structural verification.
func (c *Compiled) Audit() CompiledAudit {
	v := CompiledAudit{
		Off:       append([]uint32(nil), c.off...),
		Labels:    append([]uint64(nil), c.labels...),
		Targets:   append([]StateID(nil), c.targets...),
		States:    make([]StateAudit, len(c.hot)),
		Stride:    StrideTableCopy(c.stride),
		Ent:       make([]EntrySlotAudit, len(c.ent)),
		EntMask:   c.entMask,
		EntShift:  c.entShift,
		EntLen:    c.entLen,
		Filt:      append([]uint64(nil), c.filt...),
		FiltShift: c.filtShift,
		LocalSize: c.localSize,
	}
	for i, rec := range c.hot {
		cr := c.cold[i]
		v.States[i] = StateAudit{
			Lab0: rec.lab0, Lab1: rec.lab1,
			Tgt0: rec.tgt0, Tgt1: rec.tgt1,
			Kind0: uint8(rec.kind0), Kind1: uint8(rec.kind1),
			Stride:       rec.stride,
			Flags:        cr.flags,
			BranchTarget: cr.btgt,
			FallThrough:  cr.fthru,
		}
	}
	for i, e := range c.ent {
		v.Ent[i] = EntrySlotAudit{Key: e.key, Val: e.val}
	}
	return v
}

// NextState resolves an in-trace transition through the production fast
// path (in-trace inline slots, then span scan) — the compiled half of the verifier's
// structural-equivalence proof against the reference Automaton.
func (c *Compiled) NextState(s StateID, label uint64) (StateID, bool) {
	return c.next(s, label)
}

// EntryLookup resolves a trace-entry address through the production filter
// and open-addressed probe sequence.
func (c *Compiled) EntryLookup(addr uint64) (StateID, bool) {
	return c.entry(addr)
}

// StrideProve re-runs Specialize's admission proof for a claimed fused
// cycle: it walks pat from anchor through the production cache-less
// transition function and rebuilds the entire entry — trajectory, miss
// classification, crossing count, both per-traversal Stats deltas and the
// derived tile. ok is false when the pattern is inadmissible (bad shape, a
// desync mid-pattern, or a trajectory that does not close on its anchor).
// The verifier's C-STRIDE rule holds a decoded table against this ground
// truth, so a forged entry can only pass by being byte-identical to what
// the production simulation derives.
func (c *Compiled) StrideProve(anchor StateID, pat []Edge) (StrideEntry, bool) {
	return buildStrideEntry(c, anchor, pat)
}
