package core

// Specialize: the fused trace-cycle pass. The paper's Figure 1 steady state
// is a handful of trace loops executing millions of times; per-edge replay
// pays the full dependent-load chain (edge → hot record → compare → next
// state) for every one of those iterations even though the automaton walks
// the same short cycle of states each time. Specialize detects those cycles
// statically — cycles over the in-trace successor graph *extended with the
// trace-link edges the entry table resolves* — and compiles each into a
// stride-table entry: the cycle's k (label, instrs) edges as one flat
// pattern, the post-state trajectory, and the Stats delta of one traversal
// collapsed to a handful of precomputed numbers. The batch kernels then
// consume a whole traversal (and every immediately repeating one) with a
// single vectorized slice comparison instead of k dependent chases.
//
// Two constructions matter beyond the textbook simple cycle:
//
//   - Miss edges. A loop whose body is one trace closes through the entry
//     table (a TraceLink), not through an in-trace transition — restricting
//     cycles to the fast-slot graph caps fusion at the tight single-block
//     loops and strands every outer loop body. An entry therefore admits
//     edges the kernel resolves outside the fast slots — warm trace links,
//     trace exits, whole cold-code excursions through NTE — recording their
//     pattern positions in MissPos and carrying two precomputed per-traversal
//     Stats deltas: DeltaGlobal in the cache-less currency (misses charge
//     GlobalLookups/GlobalHits) and DeltaLocal in the warm embedded-cache
//     currency (non-NTE misses charge LocalHits). Where local caches are
//     live, the kernel verifies at probe time that the cache slots already
//     hold exactly the miss resolutions, which is what keeps the fused delta
//     equal to the per-edge replay byte for byte, local-cache words included
//     (the warm hit path never writes the slot).
//
//   - Rotations. A nested loop interrupts its outer cycle mid-rotation: the
//     stream at the outer cycle's minimum state first spins the inner
//     self-loop, so a pattern anchored there never matches. Each cycle is
//     therefore recorded at every rotation — one entry per on-cycle state —
//     and replay re-attaches wherever the per-edge kernel happens to leave
//     the cursor when an inner run ends.
//
// Exactness: an entry is admitted only if simulating its pattern from
// (anchor, in-sync) with the production transition function is k steps over
// non-NTE states ending back at the anchor, each step either an in-trace hit
// or a plausible trace link resolved by the immutable entry table, with the
// Stats delta collapsing to the precomputed expansion and the desync flag
// never raised. Fast steps touch no mutable state; link steps are fused only
// when the kernel's cache (if any) is already warm, so no kernel observes
// any difference — Stats, cursor, desync, cache words and the event stream
// (events only come from the branches a fused traversal proves it never
// takes) all match the per-edge replay exactly, which is what keeps Stats
// identical to the reference replayer and junction reconciliation sound.

import (
	"bytes"
	"sort"
	"unsafe"
)

// StrideEntry is one fused steady-state cycle, recorded at one rotation.
// Anchor is the state the entry is keyed on; consuming Pattern from Anchor
// lands back on Anchor with States as the per-edge trajectory. The pattern
// need not be a simple cycle: compound periods (an inner loop spun a fixed
// number of times inside an outer body) and excursions through NTE (trace
// exit, cold blocks, re-entry) are admitted, because the proof obligation is
// simulation exactness, not graph shape.
type StrideEntry struct {
	// Anchor is the state whose hot record's chain this entry is on.
	Anchor StateID
	// Exit is the state after one full traversal — always the anchor itself
	// for a cycle, kept explicit so the verifier can prove it.
	Exit StateID
	// Next chains further entries anchored at the same state; NoStride ends
	// the chain.
	Next int32
	// Pattern is the cycle's k (label, instrs) edges in traversal order.
	Pattern []Edge
	// States[j] is the state after consuming Pattern[j]; States[k-1] ==
	// Anchor. NTE may appear mid-trajectory (cold-code excursions).
	States []StateID
	// MissPos lists the pattern positions (ascending) not resolved by an
	// in-trace transition: warm trace links, trace exits, and every edge
	// consumed from NTE. Empty for a pure fast-slot cycle.
	MissPos []int32
	// Crossings counts the positions that involve NTE (trace exits, cold
	// edges and re-entries). Zero for entries whose misses are all warm
	// trace links; the instrumented kernels only fuse when it is zero,
	// because NTE crossings emit events on the per-edge path.
	Crossings uint64
	// Edges (k) and Instrs (the pattern's instruction sum) size the fused
	// consumption: strideEdges advances by Edges per traversal.
	Edges  uint64
	Instrs uint64
	// DeltaGlobal is the Stats delta of one traversal under the cache-less
	// transition function (step): misses from non-NTE states charge
	// GlobalLookups (+GlobalHits when resolved). DeltaLocal is the same
	// traversal under warm embedded local caches: those misses charge
	// LocalHits instead. Both are produced — and proved — by simulation.
	DeltaGlobal Stats
	DeltaLocal  Stats

	// Tile is Pattern repeated TileReps times (derived, never on the wire;
	// empty when the pattern is too long to repeat). Once a kernel has
	// confirmed a few traversals it switches to whole-tile compares, which
	// run at vectorized-memequal speed instead of one compare per edge or
	// per traversal.
	Tile     []Edge
	TileReps uint64
}

// strideTileLen is the tile's target length in edges: long enough that one
// compare call amortizes across many traversals, short enough that the hot
// entries' tiles stay cache-resident.
const strideTileLen = 128

// tile fills e.Tile/e.TileReps from e.Pattern (a no-op for patterns too
// long to repeat within the target length).
func (e *StrideEntry) tile() {
	m := len(e.Pattern)
	if m == 0 || m > strideTileLen/2 {
		return
	}
	reps := strideTileLen / m
	e.TileReps = uint64(reps)
	e.Tile = make([]Edge, 0, reps*m)
	for i := 0; i < reps; i++ {
		e.Tile = append(e.Tile, e.Pattern...)
	}
}

// strideProbeRec is the probe-loop view of one stride entry: the first
// pattern edge, the pattern length, the miss/crossing counts and the chain
// link, packed to 32 bytes so a whole table's probe side stays in a few L1
// lines. Probing through the full StrideEntry costs two dependent cache
// loads per chain step (entry → pattern header → pattern data); this array
// costs one, and single-edge miss-free matches — the dominant attach shape —
// resolve from it without touching the entry at all.
type strideProbeRec struct {
	first Edge
	m     int32
	next  int32
	miss  int32
	cross int32
}

// buildStrideProbes derives the probe side-array from a stride table. An
// empty pattern (possible only through the unvalidated WithStrideTable path)
// gets an unsatisfiable length so the kernels skip it instead of spinning on
// a zero-width match.
func buildStrideProbes(tab []StrideEntry) []strideProbeRec {
	if len(tab) == 0 {
		return nil
	}
	out := make([]strideProbeRec, len(tab))
	for i := range tab {
		e := &tab[i]
		p := strideProbeRec{m: 1 << 30, next: e.Next}
		if len(e.Pattern) > 0 {
			p.first = e.Pattern[0]
			p.m = int32(len(e.Pattern))
			p.miss = int32(len(e.MissPos))
			p.cross = int32(e.Crossings)
		}
		out[i] = p
	}
	return out
}

// StrideTableCopy deep-copies a stride table (audit snapshots and the
// verifier-side constructor both need detached entries).
func StrideTableCopy(tab []StrideEntry) []StrideEntry {
	if len(tab) == 0 {
		return nil
	}
	out := make([]StrideEntry, len(tab))
	for i, e := range tab {
		e.Pattern = append([]Edge(nil), e.Pattern...)
		e.States = append([]StateID(nil), e.States...)
		e.MissPos = append([]int32(nil), e.MissPos...)
		e.Tile = append([]Edge(nil), e.Tile...)
		out[i] = e
	}
	return out
}

// StrideTable returns a deep copy of the fused trace-cycle table (nil when
// the form is unspecialized).
func (c *Compiled) StrideTable() []StrideEntry { return StrideTableCopy(c.stride) }

// edgeBytesLen is the wire width of one Edge in the flat pattern compare.
const edgeBytesLen = int(unsafe.Sizeof(Edge{}))

// The flat compare below reinterprets []Edge as raw bytes; that is only the
// field bytes — no padding — while the struct is exactly two uint64s.
var _ = [1]struct{}{}[unsafe.Sizeof(Edge{})-16]

// edgesEqual reports whether seg and pat carry identical (label, instrs)
// sequences, comparing them as one flat byte run so the runtime's vectorized
// memequal replaces k dependent 16-byte compares. Edge is two uint64s with
// no padding, so byte equality is exactly field equality. Callers pre-filter
// on the first edge with a scalar compare — a chain probe miss never pays
// the call.
func edgesEqual(seg, pat []Edge) bool {
	n := len(seg)
	if n != len(pat) {
		return false
	}
	if n == 0 {
		return true
	}
	sb := unsafe.Slice((*byte)(unsafe.Pointer(&seg[0])), n*edgeBytesLen)
	pb := unsafe.Slice((*byte)(unsafe.Pointer(&pat[0])), n*edgeBytesLen)
	return bytes.Equal(sb, pb)
}

// Specialization caps: patterns longer than maxStrideLen stop paying for
// their probe-time compares, chains deeper than maxStrideWays stop paying
// for their probe misses (each miss costs two scalar compares thanks to the
// first-edge pre-filter, but eight of them is the budget), and the DFS depth
// and node budgets bound the static walk on pathological indirect-branch
// fans. maxStrideCands bounds the static candidate pool the sample selection
// prunes; strideMinSampleEdges is the keep threshold — an entry that fused
// fewer sample edges than that would not amortize its own probe misses at
// replay time.
const (
	maxStrideLen         = 128
	maxStrideDFSDepth    = 64
	maxStrideWays        = 8
	maxStrideEntries     = 1024
	maxStrideCands       = 8192
	strideDFSBudget      = 4096
	strideMinSampleEdges = 32
	// strideMissCostFactor is the selection cost model's margin: an anchor's
	// kept entries must fuse at least this many sample edges per probe miss
	// its chain took, or the whole bucket is dropped as a net loss.
	strideMissCostFactor = 2
	// Per-attach break-even floors (fused edges per attach): probe-record
	// self-loop attaches are nearly free, general attaches pay the flat
	// compare, the warm check and the delta fold.
	strideAttachFloorSelf    = 3
	strideAttachFloorGeneral = 12
	// strideMinFusedPct is the global bailout: when the selected table fuses
	// less than this percentage of the profiling sample, Specialize returns
	// an unspecialized form instead. The kernels' strideOn instances pay a
	// chain probe at every in-sync trace state and probe misses are pure
	// overhead, so a thin table is a guaranteed net loss — dropping it sends
	// AdvanceBatch to the table-less instances, which caps the downside at
	// zero.
	strideMinFusedPct = 35
)

// Specialize builds the fused trace-cycle stride table for c and returns a
// new Compiled carrying it. The arenas, cold records and entry table are
// shared with c (they are immutable); only the hot array is copied so the
// per-state stride heads can be linked in. c itself is not modified and
// replays exactly as before.
//
// Cycle discovery is static, but the trace graph over-approximates
// execution badly: its link edges (address-ordered trace chaining) close
// far more cycles than any run ever walks, and probing dead entries is pure
// overhead. sample — typically a captured stream prefix, the profile-guided
// idiom every DBT already lives by — selects: candidates are replayed
// against it and only entries that fused at least strideMinSampleEdges of
// it are kept. A nil sample keeps every candidate (capped), which is always
// correct — selection is a cost model, not a soundness condition, and the
// verifier judges the resulting table either way.
func Specialize(c *Compiled, sample []Edge) *Compiled {
	sp := &specializer{c: c, onPath: make([]bool, len(c.hot))}

	// Phase 1: enumerate cycles. Rooting the DFS at each state in order and
	// only traversing through states > root finds every cycle exactly once,
	// canonicalized at its minimum StateID.
	n := len(c.hot)
	var cycles [][]pathEdge
	total := 0
	for root := StateID(1); int(root) < n && total < maxStrideCands; root++ {
		sp.found = sp.found[:0]
		sp.budget = strideDFSBudget
		sp.path = sp.path[:0]
		sp.dfs(root, root, 0)
		for _, cyc := range sp.found {
			cycles = append(cycles, cyc)
			total += len(cyc)
		}
	}

	// Phase 2: admit every rotation of every cycle, bucketed by anchor. A
	// simple cycle visits each of its states once, so rotations have
	// distinct anchors; buckets only grow past one entry when several
	// cycles share a state.
	buckets := map[StateID][]StrideEntry{}
	for _, cyc := range cycles {
		m := len(cyc)
		for j := 0; j < m; j++ {
			// Rotation j starts right after edge j-1: its anchor is the state
			// edge j leaves from (the DFS root for j == 0).
			anchor := cyc[m-1].to
			if j > 0 {
				anchor = cyc[j-1].to
			}
			rot := make([]pathEdge, 0, m)
			rot = append(rot, cyc[j:]...)
			rot = append(rot, cyc[:j]...)
			if pat, ok := lowerCycle(c, anchor, rot); ok {
				if e, ok := buildStrideEntry(c, anchor, pat); ok {
					addStrideEntry(buckets, e)
				}
			}
		}
	}
	for a, b := range buckets {
		sort.SliceStable(b, func(i, j int) bool { return len(b[i].Pattern) > len(b[j].Pattern) })
		buckets[a] = b
	}

	// Phase 3: profile-guided selection and mining. The sample is replayed
	// with the production transition function twice: selection fuses
	// greedily out of the static candidate buckets exactly as the kernels
	// would and keeps only the entries that earned their keep; mining then
	// detects the periodic regions the static graph cannot see — compound
	// periods (inner loop × fixed count + outer body) and cycles that cross
	// NTE through cold code — and lowers each into a proved entry.
	if len(sample) > 0 {
		selectBySample(c, buckets, sample)
		mineStrideEntries(c, sample, buckets)
	}

	// Phase 4: cap each anchor's chain (longest-first is the probe order:
	// when two entries share a first edge the longer match, the compound
	// period, fuses more per attach) and the whole table, then lay the
	// chains out.
	kept := 0
	anchors := sortedAnchors(buckets)
	for n, a := range anchors {
		b := buckets[a]
		sort.SliceStable(b, func(i, j int) bool { return len(b[i].Pattern) > len(b[j].Pattern) })
		if len(b) > maxStrideWays {
			b = b[:maxStrideWays]
		}
		if kept+len(b) > maxStrideEntries {
			for _, late := range anchors[n:] {
				delete(buckets, late)
			}
			break
		}
		buckets[a] = b
		kept += len(b)
	}
	spec := withChains(c, buckets)

	// Global bailout: a table that fuses only a thin slice of the profile
	// makes replay slower, not faster — the specialized instances' probes
	// and their misses are overhead the table-less instances never pay.
	// Dropping the table here sends AdvanceBatch to those instances, so a
	// workload the pass cannot help replays exactly as fast as before. The
	// count is scan's, with warm checks elided: the steady state the cached
	// kernel converges to fuses every matched attach.
	if len(sample) > 0 && len(spec.stride) > 0 {
		var sink Stats
		if _, _, fused := scan[obsOff](spec, sample, 0, NTE, false, &sink, nil); fused*100 < strideMinFusedPct*uint64(len(sample)) {
			return c.WithStrideTable(nil)
		}
	}
	return spec
}

// sortedAnchors returns the anchors of buckets' non-empty chains in
// ascending order.
func sortedAnchors(buckets map[StateID][]StrideEntry) []StateID {
	anchors := make([]StateID, 0, len(buckets))
	for a, b := range buckets {
		if len(b) > 0 {
			anchors = append(anchors, a)
		}
	}
	sort.Slice(anchors, func(i, j int) bool { return anchors[i] < anchors[j] })
	return anchors
}

// withChains returns a copy of c carrying buckets as its stride table: in
// anchor order, each anchor's entries contiguous and head-first in bucket
// order, so an encode/decode round trip (which re-heads chains at the first
// table-order entry per anchor) reproduces the table exactly.
func withChains(c *Compiled, buckets map[StateID][]StrideEntry) *Compiled {
	var tab []StrideEntry
	for _, a := range sortedAnchors(buckets) {
		b := buckets[a]
		head := int32(len(tab))
		for i := range b {
			b[i].Next = head + int32(i) + 1
			tab = append(tab, b[i])
		}
		tab[len(tab)-1].Next = noStride
	}
	return c.WithStrideTable(tab)
}

// selectBySample replays sample with the memoryless transition function,
// attaching candidate entries greedily in bucket (probe) order through the
// kernels' consumer (fuse) and counting both the edges each entry fuses and
// the probe misses each anchor's chain takes, then prunes. Two prunes
// apply: an entry below the keep threshold is dead weight, and a whole
// bucket whose fused edges don't clear a multiple of its probe misses is a
// net loss — the anchor is visited mostly off-cycle, and every off-cycle
// visit pays the chain walk for nothing (this is what made probe-heavy
// pointer-chasing workloads slower specialized than plain). The count walk
// assumes warm links (the steady state the cached kernels converge to),
// which only ever overestimates — a dead cycle still counts zero.
func selectBySample(c *Compiled, buckets map[StateID][]StrideEntry, sample []Edge) {
	cand := withChains(c, buckets)
	fused := make([]uint64, len(cand.stride))
	attaches := make([]uint64, len(cand.stride))
	missAt := make([]uint64, len(c.hot))
	var sink Stats
	cur, des := NTE, false
	for k := 0; k < len(sample); {
		if cur != NTE && !des {
			if si := cand.hot[cur].stride; si >= 0 {
				if si, end, runs := cand.fuse(sample, k, si, false, nil, 0); runs != 0 {
					fused[si] += uint64(end - k)
					attaches[si]++
					k = end
					continue
				}
				missAt[cur]++
			}
		}
		cur, des = step[obsOff](c, cur, des, sample[k].Label, sample[k].Instrs, &sink, nil, 0)
		k++
	}
	for a, b := range buckets {
		if len(b) == 0 {
			continue
		}
		// withChains laid the bucket out contiguously from its chain head.
		head := int(cand.hot[a].stride)
		kept := b[:0]
		var total uint64
		for i := range b {
			f, n := fused[head+i], attaches[head+i]
			if f < strideMinSampleEdges {
				continue
			}
			// Per-attach floor: an attach must fuse enough edges to cover
			// its own fixed cost. A miss-free self-loop attach resolves
			// entirely from the 32-byte probe record; a general attach pays
			// the pattern compare, the warm check and the scaled delta fold,
			// so it needs a longer region to break even. Entries whose
			// average region is shorter than that floor made replay slower
			// than the per-edge kernel on short-run workloads.
			floor := n * strideAttachFloorSelf
			if len(b[i].Pattern) > 1 || len(b[i].MissPos) > 0 {
				floor = n * strideAttachFloorGeneral
			}
			if f < floor {
				continue
			}
			kept = append(kept, b[i])
			total += f
		}
		// A fused edge saves roughly one fast-slot resolution; a probe miss
		// costs roughly one chain walk. Requiring the savings to double the
		// walks keeps only anchors that are on-cycle most of the time.
		if total < strideMissCostFactor*missAt[a] {
			kept = kept[:0]
		}
		buckets[a] = kept
	}
}

// pathEdge is one DFS step: the label taken and the state it lands on.
type pathEdge struct {
	label uint64
	to    StateID
}

type specializer struct {
	c      *Compiled
	onPath []bool
	path   []pathEdge
	found  [][]pathEdge
	budget int
}

// dfs enumerates cycles rooted (and minimal) at root over the in-trace
// successor graph extended with trace-link edges. In-trace successors are
// the state's full transition span; link successors are the block's branch
// target and fall-through — the only labels plausibleSuccessor admits off a
// direct terminator — resolved through the entry table, skipped when the
// span already covers the label (the kernel resolves in-trace first).
func (sp *specializer) dfs(root, cur StateID, depth int) {
	if sp.budget <= 0 || len(sp.found) >= maxStrideWays {
		return
	}
	sp.budget--
	c := sp.c
	lo, hi := c.off[cur], c.off[cur+1]
	for j := lo; j < hi; j++ {
		sp.tryEdge(root, c.labels[j], c.targets[j], depth)
	}
	cr := &c.cold[cur]
	if cr.flags&flagBranch != 0 && !sp.inSpan(cur, cr.btgt) {
		if t, ok := c.entry(cr.btgt); ok {
			sp.tryEdge(root, cr.btgt, t, depth)
		}
	}
	if cr.flags&flagFallThru != 0 && cr.fthru != cr.btgt && !sp.inSpan(cur, cr.fthru) {
		if t, ok := c.entry(cr.fthru); ok {
			sp.tryEdge(root, cr.fthru, t, depth)
		}
	}
}

// inSpan reports whether label is among s's in-trace transitions (in which
// case the kernel never reaches the entry table for it).
func (sp *specializer) inSpan(s StateID, label uint64) bool {
	c := sp.c
	for j := c.off[s]; j < c.off[s+1]; j++ {
		if c.labels[j] == label {
			return true
		}
	}
	return false
}

// tryEdge extends the DFS path along one successor edge: closing the cycle
// when it returns to the root, recursing when it stays above it.
func (sp *specializer) tryEdge(root StateID, lab uint64, tgt StateID, depth int) {
	if lab == impossibleLabel || len(sp.found) >= maxStrideWays {
		return
	}
	if tgt == root {
		cyc := make([]pathEdge, len(sp.path)+1)
		copy(cyc, sp.path)
		cyc[len(cyc)-1] = pathEdge{label: lab, to: tgt}
		sp.found = append(sp.found, cyc)
		return
	}
	if tgt <= root || depth+1 >= maxStrideDFSDepth || sp.onPath[tgt] {
		return
	}
	sp.onPath[tgt] = true
	sp.path = append(sp.path, pathEdge{label: lab, to: tgt})
	sp.dfs(root, tgt, depth+1)
	sp.path = sp.path[:len(sp.path)-1]
	sp.onPath[tgt] = false
}

// lowerCycle converts a DFS cycle rotation into a pattern, taking each
// edge's instruction count from the static block sizes. Cycles through
// blocks whose dynamic retire count can diverge from the static one
// (REP-style) simply fail the stream compare at replay time and fall back
// to the per-edge kernel, so admission only needs the static counts to be
// positive.
func lowerCycle(c *Compiled, anchor StateID, cyc []pathEdge) ([]Edge, bool) {
	pat := make([]Edge, len(cyc))
	from := anchor
	for j, pe := range cyc {
		s := c.a.State(from)
		if s == nil || s.TBB == nil {
			return nil, false
		}
		instrs := uint64(s.TBB.Block.NumInstrs)
		if instrs == 0 {
			return nil, false
		}
		pat[j] = Edge{Label: pe.label, Instrs: instrs}
		from = pe.to
	}
	return pat, true
}

// buildStrideEntry lowers a candidate pattern into a stride entry by
// simulating it with the production transition function from (anchor,
// in-sync) and proving it exact: every step lands where the recorded
// trajectory says with the desync flag never raised, and the traversal ends
// back at the anchor. The simulation *is* the entry's Stats delta — the
// cache-less run fills DeltaGlobal directly, and DeltaLocal rewrites the
// misses consumed from non-NTE states into warm local hits (the probe-time
// warm check is what licenses that substitution at replay time).
func buildStrideEntry(c *Compiled, anchor StateID, pat []Edge) (StrideEntry, bool) {
	m := len(pat)
	if m == 0 || m > maxStrideLen || anchor == NTE {
		return StrideEntry{}, false
	}
	e := StrideEntry{
		Anchor:  anchor,
		Exit:    anchor,
		Next:    noStride,
		Pattern: append([]Edge(nil), pat...),
		States:  make([]StateID, m),
		Edges:   uint64(m),
	}
	cur, des := anchor, false
	for j := 0; j < m; j++ {
		lbl, ins := pat[j].Label, pat[j].Instrs
		from := cur
		inTrace := false
		if from != NTE {
			if _, ok := c.next(from, lbl); ok {
				inTrace = true
			}
		}
		cur, des = step[obsOff](c, cur, des, lbl, ins, &e.DeltaGlobal, nil, 0)
		if des {
			return StrideEntry{}, false
		}
		e.States[j] = cur
		if !inTrace {
			e.MissPos = append(e.MissPos, int32(j))
			if from == NTE || cur == NTE {
				e.Crossings++
			}
		}
		e.Instrs += ins
	}
	if cur != anchor {
		return StrideEntry{}, false
	}
	// DeltaLocal: the same traversal under warm embedded caches. Misses
	// from non-NTE states resolved as warm local hits charge LocalHits
	// instead of GlobalLookups (+GlobalHits when the entry table answered);
	// edges consumed from NTE bypass the cache on every kernel.
	e.DeltaLocal = e.DeltaGlobal
	for _, p := range e.MissPos {
		from := e.Anchor
		if p > 0 {
			from = e.States[p-1]
		}
		if from == NTE {
			continue
		}
		e.DeltaLocal.GlobalLookups--
		if e.States[p] != NTE {
			e.DeltaLocal.GlobalHits--
		}
		e.DeltaLocal.LocalHits++
	}
	e.tile()
	return e, true
}

// addStrideEntry appends e to its anchor's bucket unless an identical
// pattern is already there (static rotations and mined regions overlap on
// plain self-loops).
func addStrideEntry(buckets map[StateID][]StrideEntry, e StrideEntry) {
	for i := range buckets[e.Anchor] {
		if edgesEqual(buckets[e.Anchor][i].Pattern, e.Pattern) {
			return
		}
	}
	buckets[e.Anchor] = append(buckets[e.Anchor], e)
}

// mineStrideEntries scans the sample with the production transition
// function and lowers its periodic regions into stride entries. This is the
// detector for the steady states the static cycle graph cannot express: a
// compound period (an inner loop spun a fixed number of iterations inside
// an outer body) is not a simple cycle — it revisits states — and a loop
// whose body leaves the trace set entirely (exit, cold blocks, re-entry)
// has edges the automaton graph doesn't carry. Both are plain periodic
// windows of the stream, so the miner finds the smallest period that
// repeats at each in-sync position, counts its consecutive traversals, and
// keeps regions that fused at least the selection threshold. buildStrideEntry
// then proves the pattern exact (or rejects it) exactly as for static
// candidates; when the edge period is shorter than the state period the
// pattern is doubled until the trajectory closes.
func mineStrideEntries(c *Compiled, sample []Edge, buckets map[StateID][]StrideEntry) {
	n := len(sample)
	var sink Stats
	// one is a one-entry chain: a candidate period's repeats are counted by
	// the kernels' consumer.
	one := &Compiled{stride: make([]StrideEntry, 1), strideProbe: make([]strideProbeRec, 1)}
	cur, des := NTE, false
	k := 0
	for k < n {
		if cur == NTE || des {
			cur, des = step[obsOff](c, cur, des, sample[k].Label, sample[k].Instrs, &sink, nil, 0)
			k++
			continue
		}
		// Smallest period first, or a multiple of it when the automaton
		// trajectory has a longer period than the edge stream.
		period := 0
		limit := maxStrideLen
		if limit > (n-k)/2 {
			limit = (n - k) / 2
		}
		for m := 1; m <= limit; m++ {
			if sample[k+m] != sample[k] {
				continue
			}
			if edgesEqual(sample[k:k+m], sample[k+m:k+2*m]) {
				period = m
				break
			}
		}
		consumed := 1
		if period != 0 {
			m := period
			one.stride[0].Pattern = sample[k : k+m]
			one.strideProbe[0] = strideProbeRec{first: sample[k], m: int32(m), next: noStride}
			_, _, runs := one.fuse(sample, k, 0, false, nil, 0)
			r := int(runs)
			if uint64(r)*uint64(m) >= strideMinSampleEdges {
				for mm := m; mm <= maxStrideLen && mm*2 <= r*m; mm += m {
					if e, ok := buildStrideEntry(c, cur, sample[k:k+mm]); ok {
						addStrideEntry(buckets, e)
						break
					}
				}
				// Step through the whole region: every edge of it is now
				// (at best) covered by the mined entry, and re-probing each
				// suffix position would only re-derive rotations of it.
				consumed = r * m
			}
		}
		for j := 0; j < consumed; j++ {
			cur, des = step[obsOff](c, cur, des, sample[k].Label, sample[k].Instrs, &sink, nil, 0)
			k++
		}
	}
}

// WithStrideTable returns a copy of c carrying tab verbatim, with each
// state's chain head pointing at the first entry in table order that names
// it as Anchor. No validation is performed — this is the verifier-side
// constructor for decoded and deliberately corrupted tables; production
// code builds tables through Specialize only.
func (c *Compiled) WithStrideTable(tab []StrideEntry) *Compiled {
	spec := &Compiled{}
	*spec = *c
	spec.hot = append([]hotRec(nil), c.hot...)
	for i := range spec.hot {
		spec.hot[i].stride = noStride
	}
	spec.stride = StrideTableCopy(tab)
	spec.strideProbe = buildStrideProbes(spec.stride)
	for i := len(spec.stride) - 1; i >= 0; i-- {
		a := spec.stride[i].Anchor
		if a >= 0 && int(a) < len(spec.hot) {
			spec.hot[a].stride = int32(i)
		}
	}
	return spec
}
