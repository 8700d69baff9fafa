package verify

import (
	"fmt"

	"github.com/lsc-tea/tea/internal/btree"
	"github.com/lsc-tea/tea/internal/core"
)

// Compiled statically checks a compiled flat automaton: the arena layout,
// the inline fast slots, the precomputed plausibility fields, the
// open-addressed entry table and its presence filter, the B+ tree the
// replay path bulk-loads from the same entries, and — capping them all — a
// bisimulation-style structural equivalence proof against the Automaton
// the form was compiled from, so compiled correctness no longer rests on
// replay sampling.
//
// Rules:
//
//	C-OFF    arena offsets are monotone and bounded; the final offset spans
//	         the label/target arenas exactly.
//	C-SPAN   every state's span is strictly sorted with valid targets and
//	         equals the automaton state's transition table.
//	C-SLOT   every inline fast slot is re-derived exactly. A state whose
//	         block ends in a direct terminator and whose in-trace labels
//	         are all its branch target or fall-through holds a complete
//	         successor row: slot 0 the branch target, slot 1 the
//	         fall-through (a missing one duplicating the other), each with
//	         its kind and target — in-trace from the span, link or exit
//	         from the automaton's entry table. Every other state holds the
//	         span head (two-slot copy, single-transition duplication,
//	         impossible-label fill), all of kind in-trace.
//	C-PLAUS  the precomputed plausibility fields (flags, branch target,
//	         fall-through) match the state's block terminator.
//	C-ENT    the entry table is a power-of-two open-addressed map at <=50%
//	         load whose occupied slots are exactly the automaton's entries,
//	         each reachable from its home slot by linear probing.
//	C-FILT   the presence filter covers every entry (no false negatives).
//	C-LOCAL  the embedded local-cache geometry matches the configuration.
//	C-BTREE  the bulk-loaded B+ tree over the same entries passes the
//	         structural check at minimal height with every key retrievable.
//	C-EQ     structural equivalence: state-by-state, the compiled
//	         transition function and entry lookup agree with the reference
//	         automaton over the complete relevant label alphabet.
//	C-SOA    the SoA record geometry holds: the hot record is exactly half
//	         a 64-byte cache line (two per line), the cold record no wider.
//	C-STRIDE every fused trace-cycle entry is byte-identical to what the
//	         production admission simulation derives for its (anchor,
//	         pattern) — trajectory, miss classification, crossings, both
//	         per-traversal Stats deltas, tile — and the per-state chains
//	         are well-formed (in-range, anchor-consistent, acyclic).
func Compiled(c *core.Compiled) *Report {
	r := &Report{}
	v := c.Audit()
	a := c.Automaton()
	compiledStructural(r, v, a, c.Config())
	compiledBisim(r, c, a, v)
	compiledBTree(r, a.Entries(), c.Config().Fanout)
	compiledSoA(r)
	compiledStride(r, c, v)
	r.normalize()
	return r
}

// compiledSoA proves C-SOA: the structure-of-arrays split's record geometry.
// The hot record (two inline slots + stride chain head) must stay exactly
// half a 64-byte cache line so two states share a line on the fast path; the
// cold plausibility record must not grow past it, or the slot-miss path
// starts paying more lines than the layout promised.
func compiledSoA(r *Report) {
	if core.HotRecSize != 32 {
		r.errf("C-SOA", -1, "hot", "hot record is %d bytes, want exactly 32 (two per cache line)", core.HotRecSize)
	}
	if core.ColdRecSize > core.HotRecSize {
		r.errf("C-SOA", -1, "cold", "cold record (%d bytes) wider than the hot record (%d)", core.ColdRecSize, core.HotRecSize)
	}
}

// compiledStride proves C-STRIDE over the audit snapshot. Every entry of
// the fused trace-cycle table is re-proven through the production admission
// simulation (core.StrideProve is the same code path Specialize admits
// entries through): a decoded or forged entry passes only by being
// byte-identical to what the simulation derives for its anchor and pattern.
// On top of the per-entry proof the per-state chains must be structurally
// sound: heads in range and anchored at their state, Next links in range
// with the same anchor, no cycles, and no entry orphaned off every chain.
func compiledStride(r *Report, c *core.Compiled, v core.CompiledAudit) {
	tab := v.Stride
	n := len(v.States)
	for i := range tab {
		e := &tab[i]
		locus := fmt.Sprintf("stride[%d]", i)
		if len(e.Pattern) == 0 || len(e.Pattern) > core.MaxStrideLen {
			r.errf("C-STRIDE", e.Anchor, locus, "pattern length %d outside (0, %d]", len(e.Pattern), core.MaxStrideLen)
			continue
		}
		if e.Anchor < 0 || int(e.Anchor) >= n {
			r.errf("C-STRIDE", e.Anchor, locus, "anchor %d outside the %d-state form", e.Anchor, n)
			continue
		}
		if e.Next != core.NoStride && (e.Next < 0 || int(e.Next) >= len(tab)) {
			r.errf("C-STRIDE", e.Anchor, locus, "chain link %d outside the %d-entry table", e.Next, len(tab))
		}
		want, ok := c.StrideProve(e.Anchor, e.Pattern)
		if !ok {
			r.errf("C-STRIDE", e.Anchor, locus, "pattern is inadmissible: the production simulation desyncs or does not close on the anchor")
			continue
		}
		if e.Exit != want.Exit {
			r.errf("C-STRIDE", e.Anchor, locus, "exit %d, simulation proves %d", e.Exit, want.Exit)
		}
		if e.Edges != want.Edges || e.Instrs != want.Instrs {
			r.errf("C-STRIDE", e.Anchor, locus, "edges/instrs %d/%d, simulation proves %d/%d", e.Edges, e.Instrs, want.Edges, want.Instrs)
		}
		if !stateSliceEq(e.States, want.States) {
			r.errf("C-STRIDE", e.Anchor, locus, "trajectory %v, simulation proves %v", e.States, want.States)
		}
		if !int32SliceEq(e.MissPos, want.MissPos) {
			r.errf("C-STRIDE", e.Anchor, locus, "miss positions %v, simulation proves %v", e.MissPos, want.MissPos)
		}
		if e.Crossings != want.Crossings {
			r.errf("C-STRIDE", e.Anchor, locus, "crossings %d, simulation proves %d", e.Crossings, want.Crossings)
		}
		if e.DeltaGlobal != want.DeltaGlobal {
			r.errf("C-STRIDE", e.Anchor, locus, "cache-less delta %+v, simulation proves %+v", e.DeltaGlobal, want.DeltaGlobal)
		}
		if e.DeltaLocal != want.DeltaLocal {
			r.errf("C-STRIDE", e.Anchor, locus, "warm-cache delta %+v, simulation proves %+v", e.DeltaLocal, want.DeltaLocal)
		}
		if e.TileReps != want.TileReps || !edgeSliceEq(e.Tile, want.Tile) {
			r.errf("C-STRIDE", e.Anchor, locus, "tile (%d reps, %d edges) does not match the derived tile (%d reps, %d edges)",
				e.TileReps, len(e.Tile), want.TileReps, len(want.Tile))
		}
	}

	// Chain well-formedness over the hot records' heads.
	reached := make([]bool, len(tab))
	for i := 0; i < n; i++ {
		head := v.States[i].Stride
		if head == core.NoStride {
			continue
		}
		id := core.StateID(i)
		locus := fmt.Sprintf("state %d chain", i)
		if head < 0 || int(head) >= len(tab) {
			r.errf("C-STRIDE", id, locus, "chain head %d outside the %d-entry table", head, len(tab))
			continue
		}
		si, steps := head, 0
		for si != core.NoStride {
			if si < 0 || int(si) >= len(tab) {
				r.errf("C-STRIDE", id, locus, "chain link %d outside the %d-entry table", si, len(tab))
				break
			}
			if tab[si].Anchor != id {
				r.errf("C-STRIDE", id, locus, "chain entry %d anchored at %d, not this state", si, tab[si].Anchor)
				break
			}
			reached[si] = true
			if steps++; steps > len(tab) {
				r.errf("C-STRIDE", id, locus, "chain does not terminate within %d entries (cycle)", len(tab))
				break
			}
			si = tab[si].Next
		}
	}
	for i := range tab {
		if !reached[i] {
			r.warnf("C-STRIDE", tab[i].Anchor, fmt.Sprintf("stride[%d]", i), "entry unreachable from its anchor's chain (dead weight, never fused)")
		}
	}
}

func stateSliceEq(a, b []core.StateID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func int32SliceEq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func edgeSliceEq(a, b []core.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compiledStructural runs every rule that needs only the audit snapshot
// and the source automaton. Tests corrupt a snapshot to prove rules fire.
func compiledStructural(r *Report, v core.CompiledAudit, a *core.Automaton, cfg core.LookupConfig) {
	n := len(v.States)
	if a.NumStates() != n {
		r.errf("C-OFF", -1, "states", "compiled has %d states, automaton has %d", n, a.NumStates())
		return
	}
	if len(v.Off) != n+1 {
		r.errf("C-OFF", -1, "off", "offset table has %d entries for %d states", len(v.Off), n)
		return
	}
	if v.Off[0] != 0 {
		r.errf("C-OFF", -1, "off[0]", "first offset is %d, want 0", v.Off[0])
	}
	if len(v.Labels) != len(v.Targets) {
		r.errf("C-OFF", -1, "arenas", "label arena %d and target arena %d differ", len(v.Labels), len(v.Targets))
		return
	}
	if int(v.Off[n]) != len(v.Labels) {
		r.errf("C-OFF", -1, fmt.Sprintf("off[%d]", n), "final offset %d does not span the %d-entry arena", v.Off[n], len(v.Labels))
	}
	for i := 0; i < n; i++ {
		if v.Off[i] > v.Off[i+1] {
			r.errf("C-OFF", core.StateID(i), fmt.Sprintf("off[%d]", i), "offsets not monotone: %d > %d", v.Off[i], v.Off[i+1])
			return
		}
		if int(v.Off[i+1]) > len(v.Labels) {
			r.errf("C-OFF", core.StateID(i), fmt.Sprintf("off[%d]", i+1), "offset %d beyond arena of %d", v.Off[i+1], len(v.Labels))
			return
		}
	}

	for i := 0; i < n; i++ {
		id := core.StateID(i)
		span := v.Labels[v.Off[i]:v.Off[i+1]]
		tgts := v.Targets[v.Off[i]:v.Off[i+1]]

		for k, label := range span {
			if k > 0 && span[k-1] >= label {
				r.errf("C-SPAN", id, idLocus(id), "span labels not strictly sorted at %d (0x%x after 0x%x)", k, label, span[k-1])
			}
			if tgts[k] <= 0 || int(tgts[k]) >= n {
				r.errf("C-SPAN", id, idLocus(id), "span target %d invalid on label 0x%x", tgts[k], label)
			}
		}
		want := a.State(id)
		wl, wt := want.Labels(), want.Targets()
		if len(wl) != len(span) {
			r.errf("C-SPAN", id, idLocus(id), "span has %d transitions, automaton state has %d", len(span), len(wl))
		} else {
			for k := range span {
				if span[k] != wl[k] || tgts[k] != wt[k] {
					r.errf("C-SPAN", id, idLocus(id), "span[%d] = (0x%x -> %d), automaton has (0x%x -> %d)", k, span[k], tgts[k], wl[k], wt[k])
				}
			}
		}

		rec := v.States[i]
		if row, ok := rowSlots(a, want); ok {
			for k, got := range [2]slot{{rec.Lab0, rec.Tgt0, rec.Kind0}, {rec.Lab1, rec.Tgt1, rec.Kind1}} {
				if got != row[k] {
					r.errf("C-SLOT", id, idLocus(id), "row slot %d holds (0x%x->%d kind %d), block and entry table give (0x%x->%d kind %d)",
						k, got.lab, got.tgt, got.kind, row[k].lab, row[k].tgt, row[k].kind)
				}
			}
		} else if rec.Kind0 != core.AuditSlotTrace || rec.Kind1 != core.AuditSlotTrace {
			r.errf("C-SLOT", id, idLocus(id), "state without a successor row holds slot kinds %d/%d, want in-trace", rec.Kind0, rec.Kind1)
		} else {
			switch {
			case len(span) >= 2:
				if rec.Lab0 != span[0] || rec.Tgt0 != tgts[0] || rec.Lab1 != span[1] || rec.Tgt1 != tgts[1] {
					r.errf("C-SLOT", id, idLocus(id), "fast slots (0x%x->%d, 0x%x->%d) disagree with span head (0x%x->%d, 0x%x->%d)",
						rec.Lab0, rec.Tgt0, rec.Lab1, rec.Tgt1, span[0], tgts[0], span[1], tgts[1])
				}
			case len(span) == 1:
				if rec.Lab0 != span[0] || rec.Tgt0 != tgts[0] || rec.Lab1 != span[0] || rec.Tgt1 != tgts[0] {
					r.errf("C-SLOT", id, idLocus(id), "single transition 0x%x->%d not duplicated into both fast slots", span[0], tgts[0])
				}
			default:
				if rec.Lab0 != core.ImpossibleLabel || rec.Lab1 != core.ImpossibleLabel {
					r.errf("C-SLOT", id, idLocus(id), "empty state's fast slots hold 0x%x/0x%x, want impossible-label fill", rec.Lab0, rec.Lab1)
				}
			}
		}

		checkPlausFields(r, id, rec, want)
	}

	checkEntryTable(r, v, a)
	checkFilter(r, v, a)

	// C-LOCAL: embedded cache geometry.
	switch {
	case !cfg.Local && v.LocalSize != 0:
		r.errf("C-LOCAL", -1, "local", "caches disabled by config but LocalSize is %d", v.LocalSize)
	case cfg.Local && v.LocalSize != cfg.LocalSize:
		r.errf("C-LOCAL", -1, "local", "LocalSize %d does not match configured %d", v.LocalSize, cfg.LocalSize)
	case v.LocalSize != 0 && v.LocalSize&(v.LocalSize-1) != 0:
		r.errf("C-LOCAL", -1, "local", "LocalSize %d is not a power of two", v.LocalSize)
	}
}

// slot is one inline fast slot as C-SLOT compares it.
type slot struct {
	lab  uint64
	tgt  core.StateID
	kind uint8
}

// rowSlots derives st's complete successor row from its block terminator,
// its transition table and the automaton's entry table, without reading the
// compiled form: ok is false when st is NTE, ends in an indirect
// terminator, has neither a branch target nor a fall-through, or has an
// in-trace label that is neither.
func rowSlots(a *core.Automaton, st *core.State) ([2]slot, bool) {
	if st.TBB == nil {
		return [2]slot{}, false
	}
	term := st.TBB.Block.Term
	ft, hasFT := st.TBB.Block.FallThrough()
	hasBr := !term.IsIndirect() && term.IsBranch()
	if term.IsIndirect() || !hasBr && !hasFT {
		return [2]slot{}, false
	}
	for _, l := range st.Labels() {
		if !(hasBr && l == term.Target) && !(hasFT && l == ft) {
			return [2]slot{}, false
		}
	}
	resolve := func(label uint64) slot {
		if t, ok := st.Next(label); ok {
			return slot{label, t, core.AuditSlotTrace}
		}
		if t, ok := a.EntryFor(label); ok {
			return slot{label, t, core.AuditSlotLink}
		}
		return slot{label, core.NTE, core.AuditSlotExit}
	}
	switch {
	case !hasBr:
		s := resolve(ft)
		return [2]slot{s, s}, true
	case !hasFT:
		s := resolve(term.Target)
		return [2]slot{s, s}, true
	}
	return [2]slot{resolve(term.Target), resolve(ft)}, true
}

// idLocus renders the plain locus of a compiled-state finding; like
// stateLocus it is called only on the branch that reports one.
func idLocus(id core.StateID) string { return fmt.Sprintf("state %d", id) }

// checkPlausFields proves C-PLAUS: the 64-byte record's desync-check fields
// must equal what Compile derives from the state's block terminator.
func checkPlausFields(r *Report, id core.StateID, rec core.StateAudit, want *core.State) {
	var flags uint8
	var btgt, fthru uint64
	if want.TBB != nil {
		term := want.TBB.Block.Term
		if term.IsIndirect() {
			flags |= core.AuditFlagIndirect
		} else if term.IsBranch() {
			flags |= core.AuditFlagBranch
			btgt = term.Target
		}
		if ft, ok := want.TBB.Block.FallThrough(); ok {
			flags |= core.AuditFlagFallThru
			fthru = ft
		}
	}
	if rec.Flags != flags {
		r.errf("C-PLAUS", id, idLocus(id), "flags 0x%x, block terminator implies 0x%x", rec.Flags, flags)
	}
	if rec.BranchTarget != btgt {
		r.errf("C-PLAUS", id, idLocus(id), "branch target 0x%x, block terminator implies 0x%x", rec.BranchTarget, btgt)
	}
	if rec.FallThrough != fthru {
		r.errf("C-PLAUS", id, idLocus(id), "fall-through 0x%x, block implies 0x%x", rec.FallThrough, fthru)
	}
}

// checkEntryTable proves C-ENT on the snapshot: table geometry, load
// factor, content agreement with the automaton's entry table, and probe
// reachability of every entry from its home slot.
func checkEntryTable(r *Report, v core.CompiledAudit, a *core.Automaton) {
	size := len(v.Ent)
	if size < 8 || size&(size-1) != 0 {
		r.errf("C-ENT", -1, "ent", "table size %d is not a power of two >= 8", size)
		return
	}
	if v.EntMask != uint64(size-1) {
		r.errf("C-ENT", -1, "ent", "mask 0x%x does not match size %d", v.EntMask, size)
	}
	if size != 1<<(64-int(v.EntShift)) {
		r.errf("C-ENT", -1, "ent", "shift %d does not match size %d", v.EntShift, size)
	}

	entries := a.Entries()
	want := make(map[uint64]core.StateID, len(entries))
	for _, e := range entries {
		want[e.Addr] = e.State
	}

	occupied := 0
	seen := make(map[uint64]bool, len(entries))
	for i, slot := range v.Ent {
		if slot.Val < 0 {
			continue
		}
		occupied++
		locus := fmt.Sprintf("ent[%d]", i)
		if seen[slot.Key] {
			r.errf("C-ENT", slot.Val, locus, "duplicate key 0x%x", slot.Key)
		}
		seen[slot.Key] = true
		w, ok := want[slot.Key]
		switch {
		case !ok:
			r.errf("C-ENT", slot.Val, locus, "fabricated entry 0x%x -> %d not in the automaton", slot.Key, slot.Val)
		case w != slot.Val:
			r.errf("C-ENT", slot.Val, locus, "entry 0x%x -> %d, automaton has %d", slot.Key, slot.Val, w)
		}
	}
	if occupied != v.EntLen {
		r.errf("C-ENT", -1, "ent", "EntLen %d but %d occupied slots", v.EntLen, occupied)
	}
	if occupied != len(entries) {
		r.errf("C-ENT", -1, "ent", "%d occupied slots for %d automaton entries", occupied, len(entries))
	}
	if 2*occupied > size {
		r.errf("C-ENT", -1, "ent", "load %d/%d exceeds 50%%", occupied, size)
	}

	// Probe reachability: each entry must be found by linear probing from
	// its home slot without crossing an empty slot.
	for _, e := range entries {
		i := (e.Addr * core.FibHash) >> v.EntShift
		found := false
		for probes := 0; probes <= size; probes++ {
			slot := v.Ent[i]
			if slot.Val < 0 {
				break
			}
			if slot.Key == e.Addr {
				found = true
				break
			}
			i = (i + 1) & v.EntMask
		}
		if !found {
			r.errf("C-ENT", e.State, fmt.Sprintf("entry 0x%x", e.Addr), "entry not reachable by linear probe from its home slot")
		}
	}
}

// checkFilter proves C-FILT: the presence bitmap has power-of-two geometry
// and covers every entry, so the fast path can never miss a real entry.
func checkFilter(r *Report, v core.CompiledAudit, a *core.Automaton) {
	bits := len(v.Filt) * 64
	if bits < 64 || bits&(bits-1) != 0 {
		r.errf("C-FILT", -1, "filt", "filter size %d bits is not a power of two", bits)
		return
	}
	if bits != 1<<(64-int(v.FiltShift)) {
		r.errf("C-FILT", -1, "filt", "shift %d does not match %d bits", v.FiltShift, bits)
		return
	}
	for _, e := range a.Entries() {
		bit := (e.Addr * core.FibHash) >> v.FiltShift
		if v.Filt[bit>>6]&(1<<(bit&63)) == 0 {
			r.errf("C-FILT", e.State, fmt.Sprintf("entry 0x%x", e.Addr), "presence filter bit clear: lookups would falsely miss this entry")
		}
	}
}

// compiledBisim proves C-EQ through the production lookup code: for every
// state, the compiled transition function must agree with the reference
// automaton over the complete relevant label alphabet — every label either
// side knows plus every statically plausible successor — and the compiled
// entry lookup must agree with the reference entry table over every entry
// and its near misses. Identity on states plus pointwise agreement on
// transitions is exactly a bisimulation between the two representations.
// Callers pass the automaton the compiled form claims to represent; tests
// pass a foreign one to prove disagreements are caught.
func compiledBisim(r *Report, c *core.Compiled, a *core.Automaton, v core.CompiledAudit) {
	n := a.NumStates()
	if len(v.States) != n || len(v.Off) != n+1 {
		// Not even the state sets line up; the per-label comparison below
		// would index out of range, so the mismatch itself is the finding.
		r.errf("C-EQ", -1, "states", "compiled form has %d states, reference automaton has %d", len(v.States), n)
		return
	}
	for i := 0; i < n; i++ {
		id := core.StateID(i)
		st := a.State(id)

		alphabet := make(map[uint64]bool)
		for _, l := range st.Labels() {
			alphabet[l] = true
		}
		for _, l := range v.Labels[v.Off[i]:v.Off[i+1]] {
			alphabet[l] = true
		}
		if v.States[i].Lab0 != core.ImpossibleLabel {
			alphabet[v.States[i].Lab0] = true
		}
		if v.States[i].Lab1 != core.ImpossibleLabel {
			alphabet[v.States[i].Lab1] = true
		}
		if st.TBB != nil {
			for _, l := range staticSuccessors(st.TBB.Block) {
				alphabet[l] = true
			}
		}

		for label := range alphabet {
			wantTgt, wantOK := st.Next(label)
			gotTgt, gotOK := c.NextState(id, label)
			if wantOK != gotOK || (wantOK && wantTgt != gotTgt) {
				r.errf("C-EQ", id, stateLocus(id, st), "transition on 0x%x: compiled (%d,%v) != automaton (%d,%v)", label, gotTgt, gotOK, wantTgt, wantOK)
			}
		}

		if st.TBB != nil {
			wantPl := plausibleByTerm(st, alphabet)
			for label, want := range wantPl {
				if got := auditPlausible(v.States[i], label); got != want {
					r.errf("C-EQ", id, stateLocus(id, st), "plausibility of 0x%x: compiled %v != block terminator %v", label, got, want)
				}
			}
		}
	}

	// Entry lookup agreement over every entry plus near-miss probes.
	for _, e := range a.Entries() {
		got, ok := c.EntryLookup(e.Addr)
		if !ok || got != e.State {
			r.errf("C-EQ", e.State, fmt.Sprintf("entry 0x%x", e.Addr), "compiled entry lookup (%d,%v) != reference (%d,true)", got, ok, e.State)
		}
		for _, near := range []uint64{e.Addr - 1, e.Addr + 1} {
			wantTgt, wantOK := a.EntryFor(near)
			gotTgt, gotOK := c.EntryLookup(near)
			if wantOK != gotOK || (wantOK && wantTgt != gotTgt) {
				r.errf("C-EQ", -1, fmt.Sprintf("entry 0x%x", near), "compiled entry lookup (%d,%v) != reference (%d,%v)", gotTgt, gotOK, wantTgt, wantOK)
			}
		}
	}
}

// plausibleByTerm computes, for each alphabet label, whether the reference
// plausibility predicate accepts it given the state's block terminator.
func plausibleByTerm(st *core.State, alphabet map[uint64]bool) map[uint64]bool {
	b := st.TBB.Block
	term := b.Term
	ft, hasFT := b.FallThrough()
	out := make(map[uint64]bool, len(alphabet))
	for label := range alphabet {
		switch {
		case term.IsIndirect():
			out[label] = true
		case term.IsBranch() && label == term.Target:
			out[label] = true
		default:
			out[label] = hasFT && label == ft
		}
	}
	return out
}

// auditPlausible mirrors the compiled fast-path plausibility check on the
// audit snapshot.
func auditPlausible(rec core.StateAudit, label uint64) bool {
	if rec.Flags&core.AuditFlagIndirect != 0 {
		return true
	}
	if rec.Flags&core.AuditFlagBranch != 0 && label == rec.BranchTarget {
		return true
	}
	return rec.Flags&core.AuditFlagFallThru != 0 && label == rec.FallThrough
}

// compiledBTree proves C-BTREE: the B+ tree the replay path bulk-loads from
// the automaton's entries must pass the structural invariant check (sorted
// keys, separator correctness, occupancy, leaf chaining), store exactly the
// entry set, and come out at the minimal height a maximally packed
// bulk-load implies.
func compiledBTree(r *Report, entries []core.Entry, order int) {
	keys := make([]uint64, len(entries))
	vals := make([]core.StateID, len(entries))
	for i, e := range entries {
		keys[i], vals[i] = e.Addr, e.State
	}
	if order <= 0 {
		order = btree.DefaultOrder
	}
	t := btree.Bulk(order, keys, vals)
	if err := t.Check(); err != nil {
		r.errf("C-BTREE", -1, "btree", "structural check failed: %v", err)
		return
	}
	if t.Len() != len(entries) {
		r.errf("C-BTREE", -1, "btree", "tree holds %d keys for %d entries", t.Len(), len(entries))
	}
	for _, e := range entries {
		got, ok := t.Get(e.Addr)
		if !ok || got != e.State {
			r.errf("C-BTREE", e.State, fmt.Sprintf("entry 0x%x", e.Addr), "lookup (%d,%v) != (%d,true)", got, ok, e.State)
		}
	}
	// Minimal height for a maximally packed bulk-load: leaves hold up to
	// `order` keys, inner nodes up to order+1 children.
	height, capacity := 1, order
	for capacity < len(entries) {
		capacity *= order + 1
		height++
	}
	if len(entries) > 0 && t.Height() > height {
		r.errf("C-BTREE", -1, "btree", "height %d exceeds the bulk-load minimum %d for %d entries", t.Height(), height, len(entries))
	}
}
