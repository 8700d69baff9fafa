package verify

import (
	"fmt"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/trace"
)

// Automaton statically checks the reference automaton against the paper's
// invariants. cache supplies the loaded program image for the CFG rules
// (A-IMG, A-CFG); pass nil to run only the image-independent rules.
//
// Rules:
//
//	A-STATE  state 0 is NTE; every other state has a TBB; the TBB↔state
//	         map is a bijection (Property 1).
//	A-DET    per-state transition labels are strictly sorted and unique —
//	         the determinism Algorithm 1 guarantees.
//	A-TARGET every transition target is a valid non-NTE state (dangling
//	         targets are findings, not faults).
//	A-LABEL  an in-trace transition's label is its target TBB's block head,
//	         and source and target share a trace.
//	A-LIN    trace TBB chains are linear and well-indexed: TBBs[i].Index ==
//	         i, back-pointers agree, the head is TBBs[0].
//	A-ENTRY  the entry table maps trace entry addresses to trace *head*
//	         states only — no transition fabricates a trace entry
//	         mid-block — and every trace's entry is present (Property 2).
//	A-REACH  every TBB state is reachable from NTE through the entry table
//	         plus in-trace transitions; unreachable states are dead weight
//	         no recorder emits.
//	A-NTE    NTE-soundness (warn): from every TBB state some plausible
//	         execution returns to NTE ("no trace executing" stays
//	         expressible); an inescapable in-trace cycle is flagged.
//	A-IMG    every state's recorded block matches the block re-discovered
//	         from the program image (shape identity), and entry addresses
//	         are instruction addresses.
//	A-CFG    every in-trace transition label is a plausible successor of
//	         the source block per the image: the branch target, the
//	         fall-through, or anything after an indirect terminator.
func Automaton(a *core.Automaton, cache *cfg.Cache) *Report {
	r := &Report{}
	n := a.NumStates()
	if n == 0 || a.State(core.NTE).TBB != nil {
		r.errf("A-STATE", core.NTE, "state 0", "state 0 is not NTE")
		return r
	}

	seen := make(map[*trace.TBB]core.StateID, n)
	for id := core.StateID(1); int(id) < n; id++ {
		st := a.State(id)
		if st.TBB == nil {
			r.errf("A-STATE", id, stateLocus(id, st), "non-NTE state has no TBB")
			continue
		}
		if prev, dup := seen[st.TBB]; dup {
			r.errf("A-STATE", id, stateLocus(id, st), "TBB %s already owned by state %d (Property 1)", st.TBB, prev)
		}
		seen[st.TBB] = id

		labels, targets := st.Labels(), st.Targets()
		for i, label := range labels {
			if i > 0 && labels[i-1] >= label {
				r.errf("A-DET", id, stateLocus(id, st), "labels not strictly sorted at index %d (0x%x after 0x%x)", i, label, labels[i-1])
			}
			tgt := targets[i]
			if tgt <= 0 || int(tgt) >= n {
				r.errf("A-TARGET", id, stateLocus(id, st), "transition on 0x%x targets invalid state %d", label, tgt)
				continue
			}
			to := a.State(tgt)
			if to.TBB == nil {
				r.errf("A-TARGET", id, stateLocus(id, st), "transition on 0x%x targets NTE-shaped state %d", label, tgt)
				continue
			}
			if to.TBB.Block.Head != label {
				r.errf("A-LABEL", id, stateLocus(id, st), "label 0x%x does not match target %s head 0x%x", label, to.TBB, to.TBB.Block.Head)
			}
			if st.TBB != nil && to.TBB.Trace != st.TBB.Trace {
				r.errf("A-LABEL", id, stateLocus(id, st), "in-trace transition crosses traces: %s -> %s", st.TBB, to.TBB)
			}
		}
	}

	set := a.Set()
	if set != nil {
		checkTraces(r, a, set)
	}
	checkEntries(r, a, set)
	checkReachability(r, a)
	checkNTESoundness(r, a)
	if cache != nil {
		checkImage(r, a, cache)
	}
	r.normalize()
	return r
}

// stateLocus renders the canonical locus of a state finding. Rendering
// resolves the state's symbol through the program's label map, so rules
// call it only on the branch that reports a finding: a clean image renders
// no names.
func stateLocus(id core.StateID, st *core.State) string {
	if st == nil {
		return fmt.Sprintf("state %d", id)
	}
	return fmt.Sprintf("state %d (%s)", id, st.Name())
}

// checkTraces proves A-LIN over the automaton's trace set and Property 1's
// cardinality (every TBB has a state).
func checkTraces(r *Report, a *core.Automaton, set *trace.Set) {
	for _, t := range set.Traces {
		if len(t.TBBs) == 0 {
			r.errf("A-LIN", -1, fmt.Sprintf("T%d", t.ID), "trace has no TBBs")
			continue
		}
		for i, tbb := range t.TBBs {
			if tbb.Index != i {
				r.errf("A-LIN", -1, fmt.Sprintf("T%d.TBBs[%d]", t.ID, i), "TBB index %d at position %d", tbb.Index, i)
			}
			if tbb.Trace != t {
				r.errf("A-LIN", -1, fmt.Sprintf("T%d.TBBs[%d]", t.ID, i), "TBB back-pointer names %v, owner is T%d", tbb.Trace, t.ID)
			}
			if _, ok := a.StateFor(tbb); !ok {
				r.errf("A-STATE", -1, fmt.Sprintf("T%d.TBBs[%d]", t.ID, i), "TBB %s has no state (Property 1)", tbb)
			}
		}
	}
}

// checkEntries proves A-ENTRY: entry-table targets are trace heads entered
// at their block head address, and every trace's entry is present.
func checkEntries(r *Report, a *core.Automaton, set *trace.Set) {
	n := a.NumStates()
	for _, e := range a.Entries() {
		locus := fmt.Sprintf("entry 0x%x", e.Addr)
		if e.State <= 0 || int(e.State) >= n {
			r.errf("A-ENTRY", e.State, locus, "entry targets invalid state %d", e.State)
			continue
		}
		tbb := a.State(e.State).TBB
		if tbb == nil {
			r.errf("A-ENTRY", e.State, locus, "entry targets NTE")
			continue
		}
		if tbb.Index != 0 {
			r.errf("A-ENTRY", e.State, locus, "entry fabricates a trace entry mid-block: %s is TBB %d of its trace", tbb, tbb.Index)
		}
		if tbb.Block.Head != e.Addr {
			r.errf("A-ENTRY", e.State, locus, "entry address does not match head block 0x%x of %s", tbb.Block.Head, tbb)
		}
		if set != nil {
			if t, ok := set.ByEntry(e.Addr); !ok {
				r.errf("A-ENTRY", e.State, locus, "entry has no trace anchored at 0x%x", e.Addr)
			} else if t.Head() != tbb {
				r.errf("A-ENTRY", e.State, locus, "entry targets %s, trace head is %s", tbb, t.Head())
			}
		}
	}
	if set != nil {
		for _, t := range set.Traces {
			if len(t.TBBs) == 0 {
				continue
			}
			head, ok := a.EntryFor(t.EntryAddr())
			if !ok {
				r.errf("A-ENTRY", -1, fmt.Sprintf("T%d", t.ID), "trace entry 0x%x missing from entry table (Property 2)", t.EntryAddr())
				continue
			}
			if want, ok := a.StateFor(t.Head()); ok && head != want {
				r.errf("A-ENTRY", head, fmt.Sprintf("T%d", t.ID), "entry 0x%x maps to state %d, head state is %d", t.EntryAddr(), head, want)
			}
		}
	}
}

// checkReachability proves A-REACH: BFS from NTE over entry-table edges and
// in-trace transitions must visit every state.
func checkReachability(r *Report, a *core.Automaton) {
	n := a.NumStates()
	visited := make([]bool, n)
	visited[core.NTE] = true
	var queue []core.StateID
	for _, e := range a.Entries() {
		if e.State > 0 && int(e.State) < n && !visited[e.State] {
			visited[e.State] = true
			queue = append(queue, e.State)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, tgt := range a.State(id).Targets() {
			if tgt > 0 && int(tgt) < n && !visited[tgt] {
				visited[tgt] = true
				queue = append(queue, tgt)
			}
		}
	}
	for id := core.StateID(1); int(id) < n; id++ {
		if !visited[id] {
			r.errf("A-REACH", id, stateLocus(id, a.State(id)), "state unreachable from NTE (dropped in-trace edge or fabricated state)")
		}
	}
}

// checkNTESoundness proves A-NTE: from every TBB state, some plausible
// execution eventually leaves every trace ("no trace executing" must stay
// reachable). A state escapes directly when its terminator is indirect
// (control may land in cold code), when it has no plausible successors at
// all (halt: execution ends), or when a plausible successor label has no
// in-trace transition and anchors no trace (the default transition to NTE).
// Escape then propagates backwards over in-trace and entry-linked edges; a
// strongly connected hot region with no escape is flagged as a warning —
// the replayer tolerates it, but no terminating program records it.
func checkNTESoundness(r *Report, a *core.Automaton) {
	n := a.NumStates()
	escapes := make([]bool, n)
	succs := make([][]core.StateID, n)
	var queue []core.StateID

	for id := core.StateID(1); int(id) < n; id++ {
		st := a.State(id)
		if st.TBB == nil {
			continue
		}
		labels := st.Labels()
		inTrace := make(map[uint64]bool, len(labels))
		for _, l := range labels {
			inTrace[l] = true
		}
		succs[id] = st.Targets()

		term := st.TBB.Block.Term
		direct := false
		switch {
		case term.IsIndirect():
			direct = true
		default:
			plausible := staticSuccessors(st.TBB.Block)
			if len(plausible) == 0 {
				direct = true // halt or fall-off: execution ends outside any trace
			}
			for _, label := range plausible {
				if inTrace[label] {
					continue
				}
				if to, ok := a.EntryFor(label); ok && to != core.NTE {
					// Trace-linking edge: escape depends on the target trace.
					succs[id] = append(succs[id], to)
					continue
				}
				direct = true // uncovered plausible label defaults to NTE
			}
		}
		if direct {
			escapes[id] = true
			queue = append(queue, id)
		}
	}

	// Propagate escape backwards: predecessors of an escaping state escape.
	preds := make([][]core.StateID, n)
	for id := core.StateID(1); int(id) < n; id++ {
		for _, tgt := range succs[id] {
			if tgt > 0 && int(tgt) < n {
				preds[tgt] = append(preds[tgt], id)
			}
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, p := range preds[id] {
			if !escapes[p] {
				escapes[p] = true
				queue = append(queue, p)
			}
		}
	}
	for id := core.StateID(1); int(id) < n; id++ {
		if a.State(id).TBB != nil && !escapes[id] {
			r.warnf("A-NTE", id, stateLocus(id, a.State(id)), "NTE unreachable: every plausible successor stays in-trace (inescapable hot cycle)")
		}
	}
}

// staticSuccessors returns the statically known successor addresses of a
// block: the direct branch target and/or the fall-through. Indirect and
// halting terminators contribute none.
func staticSuccessors(b *cfg.Block) []uint64 {
	term := b.Term
	var out []uint64
	if term.IsBranch() && !term.IsIndirect() && term.Op != isa.HALT {
		out = append(out, term.Target)
	}
	if ft, ok := b.FallThrough(); ok {
		out = append(out, ft)
	}
	return out
}

// checkImage proves A-IMG and A-CFG against the loaded program image: every
// recorded block must re-discover to the same shape, and every in-trace
// label must be a plausible successor of its source block per the image.
func checkImage(r *Report, a *core.Automaton, cache *cfg.Cache) {
	n := a.NumStates()
	prog := cache.Program()
	checked := make(map[uint64]*cfg.Block, n)
	for id := core.StateID(1); int(id) < n; id++ {
		st := a.State(id)
		if st.TBB == nil {
			continue
		}
		rec := st.TBB.Block
		img, ok := checked[rec.Head]
		if !ok {
			var err error
			img, err = cache.BlockAt(rec.Head)
			if err != nil {
				r.errf("A-IMG", id, stateLocus(id, st), "recorded block head 0x%x is not a block in the image: %v", rec.Head, err)
				checked[rec.Head] = nil
				continue
			}
			checked[rec.Head] = img
			if img.NumInstrs != rec.NumInstrs || img.Bytes != rec.Bytes || img.End != rec.End || img.Term.Op != rec.Term.Op {
				r.errf("A-IMG", id, stateLocus(id, st), "recorded block %v does not match image block %v", rec, img)
			}
		}
		if img == nil {
			continue
		}

		// CFG consistency: labels must be reachable from this block's
		// terminator as the image defines it.
		term := img.Term
		for _, label := range st.Labels() {
			if term.IsIndirect() {
				if _, ok := prog.At(label); !ok {
					r.errf("A-CFG", id, stateLocus(id, st), "indirect successor 0x%x is not an instruction in the image", label)
				}
				continue
			}
			if !plausibleLabel(img, label) {
				r.errf("A-CFG", id, stateLocus(id, st), "label 0x%x is not a successor of %v in the image CFG", label, img)
			}
		}
	}

	// Entry addresses must be instruction addresses in the image.
	for _, e := range a.Entries() {
		if _, ok := prog.At(e.Addr); !ok {
			r.errf("A-IMG", e.State, fmt.Sprintf("entry 0x%x", e.Addr), "entry address is not an instruction in the image")
		}
	}
}

// plausibleLabel reports whether control leaving b can arrive at label:
// the direct branch target or the fall-through address.
func plausibleLabel(b *cfg.Block, label uint64) bool {
	for _, s := range staticSuccessors(b) {
		if s == label {
			return true
		}
	}
	return false
}
