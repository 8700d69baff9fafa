package core

import (
	"unsafe"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/obs"
)

// This file holds the sharded-replay primitives: speculative segment scans
// (SpecReplay and SpecRecord, each with its obs instance SpecReplayObs and
// SpecRecordObs) and junction reconciliation (Reconciler).
// internal/pipeline is the one executor that drives them across
// goroutines, on sequence-stamped chunks of a stream (DESIGN.md §14).
//
// Two properties carry everything (DESIGN.md §9, §14):
//
//   - Memorylessness: with local caches excluded, consuming one edge is a
//     pure function of (cursor, desync flag, edge), so a segment scanned
//     speculatively from (NTE, in-sync) differs from the true replay only
//     in a prefix that ends where the two trajectories first touch.
//
//   - Swap accounting: reconciliation re-replays that prefix from the true
//     entry state, subtracts the speculative prefix's charges and adds the
//     true prefix's. The suffix is identical by induction, so the merged
//     Stats (and events, and record-mode candidate decisions) are
//     byte-identical to a sequential pass.
//
// SpecResults and the Reconciler reuse their buffers, so a caller that
// recycles them (the pipeline's chunk ring does) replays at 0 allocs/edge.

// SpecResult is one segment's speculative scan result: the Stats charged
// from the guessed (NTE, in-sync) entry, the post-state trajectory
// reconciliation compares against, and — depending on the scan — collected
// events (obs scans) or head candidates and container searches (record
// mode). The buffers are reused across scans via Reset.
type SpecResult struct {
	Stats Stats
	Curs  []StateID
	Desyn []bool
	// Evs are the events of an obs scan. A replay scan stamps them with
	// global edge indices; a record scan stamps them with chunk-local clock
	// ticks (see Ticks), which the drain rebases onto the edge clock.
	Evs []obs.Event
	// Cands are a record scan's head candidates in edge order.
	Cands []RecCand
	// Searches are an obs record scan's global-container searches in edge
	// order, re-issued against the live container at drain time.
	Searches []RecSearch
	// Ticks counts a record scan's edge-clock ticks: edges with a
	// destination. A nil-To edge accounts without a transition and, as in
	// Recorder.Observe, does not move the clock.
	Ticks int
	// obs records that the last record scan was an obs scan, so
	// MergeRecord reconciles it in the same mode.
	obs bool
}

// Reset prepares the result for a segment of n edges, reusing capacity.
func (r *SpecResult) Reset(n int) {
	r.Stats = Stats{}
	if cap(r.Curs) < n {
		r.Curs = make([]StateID, n)
		r.Desyn = make([]bool, n)
	} else {
		r.Curs = r.Curs[:n]
		r.Desyn = r.Desyn[:n]
	}
	r.Evs = r.Evs[:0]
	r.Cands = r.Cands[:0]
	r.Searches = r.Searches[:0]
	r.Ticks = 0
}

// RecCand is one recording head candidate observed by a speculative record
// scan: the stream offset within the chunk and the candidate head address.
// The drain replays the hot-counter policy over these in order.
type RecCand struct {
	Idx  int32
	Head uint64
}

// RecSearch is one global-container search of an obs record scan: the
// chunk-local tick of its edge, the label searched, and whether it left a
// trace state (a trace-side miss, which also emits an EvCacheMissProbe
// event) or NTE. The reference recorder searches its live container, whose
// probe depths differ from the compiled entry table's, so the drain
// re-issues each search to feed the container's probe hook and to give each
// probe event its live depth.
type RecSearch struct {
	Tick  int32
	Trace bool
	Label uint64
}

// SpecReplay speculatively replays seg from (NTE, in-sync) with the
// memoryless transition function, recording the post-state trajectory.
//
// On a Specialize'd Compiled the scan consumes whole stride-table cycles at
// a time; a fused traversal still fills the per-edge trajectory (the cycle's
// precomputed state sequence, never desynced) so junction reconciliation
// sees exactly what a per-edge scan would have recorded.
//
//tea:hotpath
func (c *Compiled) SpecReplay(seg []Edge, r *SpecResult) {
	specReplay[obsOff](c, seg, 0, r)
}

// SpecReplayObs is SpecReplay with event collection: identical Stats and
// trajectory, with the segment's events appended to r.Evs stamped
// ebase+offset.
//
//tea:hotpath
func (c *Compiled) SpecReplayObs(seg []Edge, ebase uint64, r *SpecResult) {
	specReplay[obsOn](c, seg, ebase, r)
}

// specReplay is the one body of SpecReplay and SpecReplayObs. In the obsOn
// instance only miss-free stride entries fuse: miss positions emit events
// on the per-edge path (probe, entry-table-hit, exit records), while a
// miss-free traversal is all in-trace hits, which emit nothing, so fusing
// leaves the event stream untouched.
//
//tea:hotpath
func specReplay[M obsMode](c *Compiled, seg []Edge, ebase uint64, r *SpecResult) {
	var mode M
	emitting := unsafe.Sizeof(mode) != 0
	r.Reset(len(seg))
	st := &r.Stats
	evs := &r.Evs
	if len(c.stride) == 0 {
		cur, des := NTE, false
		for k := range seg {
			if emitting {
				cur, des = step[obsOn](c, cur, des, seg[k].Label, seg[k].Instrs, st, evs, ebase+uint64(k))
			} else {
				cur, des = step[obsOff](c, cur, des, seg[k].Label, seg[k].Instrs, st, nil, 0)
			}
			r.Curs[k] = cur
			r.Desyn[k] = des
		}
		return
	}
	hot := c.hot
	strides := c.stride
	probes := c.strideProbe
	curs, desyn := r.Curs, r.Desyn
	cur, des := NTE, false
	n := len(seg)
	for k := 0; k < n; {
		if cur != NTE && !des {
			if si := hot[cur].stride; si >= 0 {
				matched := false
				for si >= 0 {
					p := &probes[si]
					m := int(p.m)
					if m > n-k || seg[k] != p.first || emitting && p.miss != 0 {
						si = p.next
						continue
					}
					e := &strides[si]
					// The memoryless scan is exactly the simulation that
					// proved the entry — every miss resolves through the
					// immutable entry table — so entries fuse unconditionally
					// here, charged DeltaGlobal per traversal. The trajectory
					// is the proved state sequence (NTE may appear
					// mid-pattern on cold-code excursions), never desynced.
					runs := uint64(0)
					if m == 1 {
						pe := e.Pattern[0]
						s0 := e.States[0]
						for k < n && seg[k] == pe {
							curs[k] = s0
							desyn[k] = false
							k++
							runs++
						}
					} else {
						if !edgesEqual(seg[k:k+m], e.Pattern) {
							si = p.next
							continue
						}
						for {
							copy(curs[k:k+m], e.States)
							for j := k; j < k+m; j++ {
								desyn[j] = false
							}
							k += m
							runs++
							if m > n-k || !edgesEqual(seg[k:k+m], e.Pattern) {
								break
							}
						}
					}
					if runs != 0 {
						st.addScaled(&e.DeltaGlobal, runs)
						matched = true
						break
					}
					si = p.next
				}
				if matched {
					continue // the cycle exits where it entered: cur unchanged
				}
			}
		}
		if emitting {
			cur, des = step[obsOn](c, cur, des, seg[k].Label, seg[k].Instrs, st, evs, ebase+uint64(k))
		} else {
			cur, des = step[obsOff](c, cur, des, seg[k].Label, seg[k].Instrs, st, nil, 0)
		}
		curs[k] = cur
		desyn[k] = des
		k++
	}
}

// recScan is the one body of the record-mode scans. It consumes edges from
// (cur, des) through step — the same memoryless transition function the
// replay scans use, keyed by the destination block head — charging
// r.Stats, filling the trajectory and collecting the head candidates; the
// obsOn instance also collects the events, stamped with chunk-local ticks,
// and every global-container search. A nil-To edge only accounts
// (AccountTail semantics), matching Recorder.Observe.
//
// The candidate policy is MRET's, decided before any strategy mutation: an
// in-trace hit on a taken backward branch whose target anchors no trace, or
// any transition that lands in cold code off a trace exit or a taken
// backward branch.
//
// With stop non-nil the scan ends after the first edge whose post-state
// matches stop's trajectory — the junction where a true re-replay meets a
// speculative scan — and returns that edge's index; otherwise, or if the
// trajectories never touch, it returns -1.
//
//tea:hotpath
func recScan[M obsMode](c *Compiled, edges []cfg.Edge, instrs []uint64, cur StateID, des bool, r *SpecResult, stop *SpecResult) int {
	var mode M
	emitting := unsafe.Sizeof(mode) != 0
	r.Reset(len(edges))
	r.obs = emitting
	st := &r.Stats
	tick := 0
	for k := range edges {
		e := &edges[k]
		if e.To == nil {
			st.AccountTail(cur, instrs[k])
		} else {
			head := e.To.Head
			prev, hits := cur, st.InTraceHits
			if emitting {
				cur, des = step[obsOn](c, cur, des, head, instrs[k], st, &r.Evs, uint64(tick))
			} else {
				cur, des = step[obsOff](c, cur, des, head, instrs[k], st, nil, 0)
			}
			// step charges InTraceHits exactly when the label resolves
			// inside the state's own transitions.
			hit := st.InTraceHits != hits
			if emitting && !hit {
				r.Searches = append(r.Searches, RecSearch{Tick: int32(tick), Trace: prev != NTE, Label: head})
			}
			back := e.Taken && e.From != nil && e.From.BackSrc
			cand := false
			if hit {
				if back {
					_, traced := c.entry(head)
					cand = !traced
				}
			} else if cur == NTE {
				cand = prev != NTE || back
			}
			if cand {
				r.Cands = append(r.Cands, RecCand{Idx: int32(k), Head: head})
			}
			tick++
		}
		r.Curs[k], r.Desyn[k] = cur, des
		if stop != nil && cur == stop.Curs[k] && des == stop.Desyn[k] {
			r.Ticks = tick
			return k
		}
	}
	r.Ticks = tick
	return -1
}

// SpecRecord speculatively scans a record-mode chunk from (NTE, in-sync)
// against the frozen compiled snapshot: the memoryless transition charges
// r.Stats, the trajectory feeds reconciliation, and the strategy-side
// effects are *deferred* — head candidates are collected for the drain to
// replay in sequence order instead of being applied to shared state.
//
//tea:hotpath
func (c *Compiled) SpecRecord(edges []cfg.Edge, instrs []uint64, r *SpecResult) {
	recScan[obsOff](c, edges, instrs, NTE, false, r, nil)
}

// SpecRecordObs is SpecRecord with event and container-search collection.
//
//tea:hotpath
func (c *Compiled) SpecRecordObs(edges []cfg.Edge, instrs []uint64, r *SpecResult) {
	recScan[obsOn](c, edges, instrs, NTE, false, r, nil)
}

// RecReplay replays a record-mode run from (cur, des) with the true
// transition function into r and returns the exit state. The drain uses it
// to account the prefix of a chunk that ends in a recording trigger before
// handing the suffix to the sequential recorder.
//
//tea:hotpath
func (c *Compiled) RecReplay(edges []cfg.Edge, instrs []uint64, cur StateID, des bool, r *SpecResult) (StateID, bool) {
	recScan[obsOff](c, edges, instrs, cur, des, r, nil)
	if n := len(edges); n > 0 {
		return r.Curs[n-1], r.Desyn[n-1]
	}
	return cur, des
}

// RecMerge is the outcome of reconciling one speculatively scanned
// record-mode chunk against its true entry state.
type RecMerge struct {
	// Delta is the chunk's Stats contribution if accepted wholesale.
	Delta Stats
	// Cands, Evs and Searches are the reconciled lists: the true prefix's
	// recomputed entries followed by the speculative suffix's (Evs and
	// Searches only from an obs merge). The slices alias Reconciler scratch
	// (or the SpecResult) and are valid only until the next Merge* call.
	Cands    []RecCand
	Evs      []obs.Event
	Searches []RecSearch
	// ExitCur / ExitDes is the chunk's true exit state.
	ExitCur StateID
	ExitDes bool
}

// Reconciler carries the drain-side scratch buffers junction merges reuse
// across batches; the zero value is ready to use.
type Reconciler struct {
	trueEvs []obs.Event
	// tr and sp hold a record merge's true re-replay and its re-scan of the
	// speculative prefix.
	tr, sp SpecResult
}

// Merge reconciles one speculatively scanned segment against its true entry
// state (cur, des), returning the segment's true Stats contribution and exit
// state. When the entry state matches the speculation's (NTE, in-sync) the
// speculative result is exact and is returned without re-replay.
func (rc *Reconciler) Merge(c *Compiled, seg []Edge, cur StateID, des bool, r *SpecResult) (Stats, StateID, bool) {
	return merge[obsOff](rc, c, seg, 0, cur, des, r, nil)
}

// MergeObs is Merge with event splicing: the reconciled segment's events are
// appended to *merged — the true prefix's events followed by the
// speculative suffix's — so the concatenation over all segments equals the
// sequential event stream.
func (rc *Reconciler) MergeObs(c *Compiled, seg []Edge, ebase uint64, cur StateID, des bool, r *SpecResult, merged *[]obs.Event) (Stats, StateID, bool) {
	return merge[obsOn](rc, c, seg, ebase, cur, des, r, merged)
}

// merge is the one body of Merge and MergeObs: re-replay from the true entry
// state until the trajectories touch, then swap the speculative prefix's
// charges (and, in the obsOn instance, its events) for the true prefix's.
func merge[M obsMode](rc *Reconciler, c *Compiled, seg []Edge, ebase uint64, cur StateID, des bool, r *SpecResult, merged *[]obs.Event) (Stats, StateID, bool) {
	var mode M
	emitting := unsafe.Sizeof(mode) != 0
	n := len(seg)
	if n == 0 {
		return Stats{}, cur, des
	}
	if cur == NTE && !des {
		if emitting {
			*merged = append(*merged, r.Evs...)
		}
		return r.Stats, r.Curs[n-1], r.Desyn[n-1]
	}
	var trueSt Stats
	if emitting {
		rc.trueEvs = rc.trueEvs[:0]
	}
	tcur, tdes := cur, des
	conv := -1
	for j := 0; j < n; j++ {
		if emitting {
			tcur, tdes = step[obsOn](c, tcur, tdes, seg[j].Label, seg[j].Instrs, &trueSt, &rc.trueEvs, ebase+uint64(j))
		} else {
			tcur, tdes = step[obsOff](c, tcur, tdes, seg[j].Label, seg[j].Instrs, &trueSt, nil, 0)
		}
		if tcur == r.Curs[j] && tdes == r.Desyn[j] {
			conv = j
			break
		}
	}
	if conv < 0 {
		// The trajectories never touched (degenerate tiny segments): the true
		// re-replay covered the whole segment and replaces the speculation.
		if emitting {
			*merged = append(*merged, rc.trueEvs...)
		}
		return trueSt, tcur, tdes
	}
	// The speculative prefix's events are cut from r.Evs by stamp below, so
	// its re-replay needs only the Stats.
	var specSt Stats
	scur, sdes := NTE, false
	for j := 0; j <= conv; j++ {
		scur, sdes = step[obsOff](c, scur, sdes, seg[j].Label, seg[j].Instrs, &specSt, nil, 0)
	}
	out := r.Stats
	out.sub(&specSt)
	out.add(&trueSt)
	if emitting {
		// Speculative events stamped past the junction edge are the kept
		// suffix.
		cut := evsAfter(r.Evs, ebase+uint64(conv))
		*merged = append(*merged, rc.trueEvs...)
		*merged = append(*merged, r.Evs[cut:]...)
	}
	return out, r.Curs[n-1], r.Desyn[n-1]
}

// evsAfter returns the index of the first event stamped strictly after
// edge. Hand-rolled binary search: the sort.Search closure would escape on
// the zero-alloc path.
func evsAfter(evs []obs.Event, edge uint64) int {
	lo, hi := 0, len(evs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if evs[mid].Edge <= edge {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// MergeRecord reconciles one speculatively scanned record-mode chunk: the
// returned Delta and candidate list (and, for a SpecRecordObs scan, event
// and container-search lists) are exactly what a true scan from (cur, des)
// would have produced, with only the non-converged prefix re-replayed.
func (rc *Reconciler) MergeRecord(c *Compiled, edges []cfg.Edge, instrs []uint64, cur StateID, des bool, r *SpecResult) RecMerge {
	if r.obs {
		return mergeRecord[obsOn](rc, c, edges, instrs, cur, des, r)
	}
	return mergeRecord[obsOff](rc, c, edges, instrs, cur, des, r)
}

// mergeRecord is the one body of MergeRecord's two modes: the record
// analogue of merge, with the candidate, event and search lists swapped at
// the junction alongside the Stats.
func mergeRecord[M obsMode](rc *Reconciler, c *Compiled, edges []cfg.Edge, instrs []uint64, cur StateID, des bool, r *SpecResult) RecMerge {
	var mode M
	emitting := unsafe.Sizeof(mode) != 0
	n := len(edges)
	if n == 0 {
		return RecMerge{ExitCur: cur, ExitDes: des}
	}
	if cur == NTE && !des {
		return RecMerge{Delta: r.Stats, Cands: r.Cands, Evs: r.Evs, Searches: r.Searches,
			ExitCur: r.Curs[n-1], ExitDes: r.Desyn[n-1]}
	}
	tr := &rc.tr
	var conv int
	if emitting {
		conv = recScan[obsOn](c, edges, instrs, cur, des, tr, r)
	} else {
		conv = recScan[obsOff](c, edges, instrs, cur, des, tr, r)
	}
	if conv < 0 {
		// The trajectories never touched: the true re-replay covered the
		// whole chunk and replaces the speculation.
		return RecMerge{Delta: tr.Stats, Cands: tr.Cands, Evs: tr.Evs, Searches: tr.Searches,
			ExitCur: tr.Curs[n-1], ExitDes: tr.Desyn[n-1]}
	}
	// Swap the speculative prefix's charges for the true prefix's, and keep
	// the speculative entries past the junction: candidates by edge index,
	// events and searches by tick (tr.Ticks counts the ticks through the
	// junction edge).
	recScan[obsOff](c, edges[:conv+1], instrs[:conv+1], NTE, false, &rc.sp, nil)
	m := RecMerge{Delta: r.Stats, ExitCur: r.Curs[n-1], ExitDes: r.Desyn[n-1]}
	m.Delta.sub(&rc.sp.Stats)
	m.Delta.add(&tr.Stats)
	i := 0
	for i < len(r.Cands) && int(r.Cands[i].Idx) <= conv {
		i++
	}
	// The spliced lists grow tr's buffers in place, so their capacity
	// carries over to the next merge.
	tr.Cands = append(tr.Cands, r.Cands[i:]...)
	if emitting {
		i = 0
		for i < len(r.Searches) && int(r.Searches[i].Tick) < tr.Ticks {
			i++
		}
		tr.Searches = append(tr.Searches, r.Searches[i:]...)
		i = 0
		if tr.Ticks > 0 {
			i = evsAfter(r.Evs, uint64(tr.Ticks-1))
		}
		tr.Evs = append(tr.Evs, r.Evs[i:]...)
	}
	m.Cands, m.Evs, m.Searches = tr.Cands, tr.Evs, tr.Searches
	return m
}

// ReplayProbeEvents feeds the first ticks edge-clock ticks of a reconciled
// obs record scan into the recorder's context exactly as per-edge Observe
// would have: every global-container search among them is charged to the
// live container — feeding its probe hook and giving each trace-side probe
// event the live depth in place of the compiled entry table's — then the
// events, rebased from chunk-local ticks onto the edge clock, go through
// the shared ingest path and the clock moves past the ticks. A B+ tree
// search costs the tree's height whatever its key, and the ticks passed
// here insert nothing, so the tree charges its searches without descending;
// list, hash and sorted containers, whose depth depends on the key, are
// searched again. A quiet chunk passes all of its ticks, a handoff those of
// the prefix it accounts. Stats are untouched (the caller folds the delta);
// m's events are rewritten in place. No-op with no context attached.
func (r *Replayer) ReplayProbeEvents(m *RecMerge, ticks int) {
	o := r.obs
	if o == nil {
		return
	}
	evs := m.Evs
	bt, _ := r.index.(*btreeIndex)
	j := 0
	for _, s := range m.Searches {
		if int(s.Tick) >= ticks {
			break
		}
		var depth uint64
		if bt != nil {
			depth = bt.t.ChargeSearch()
		} else {
			before := r.index.Probes()
			r.index.Lookup(s.Label)
			depth = r.index.Probes() - before
		}
		if !s.Trace {
			continue
		}
		for evs[j].Kind != obs.EvCacheMissProbe {
			j++
		}
		evs[j].Aux = depth
		j++
	}
	if ticks > 0 {
		evs = evs[:evsAfter(evs, uint64(ticks-1))]
	} else {
		evs = evs[:0]
	}
	base := o.EdgeBase()
	for i := range evs {
		evs[i].Edge += base
	}
	o.IngestReplay(evs)
	o.AdvanceEdges(uint64(ticks))
}
