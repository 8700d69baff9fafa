package core

import (
	"unsafe"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/obs"
)

// This file holds the sharded-replay primitives: speculative segment scans
// (SpecReplay with its obs instance SpecReplayObs, and SpecRecord) and
// junction reconciliation (Reconciler). internal/pipeline is the one
// executor that drives them across goroutines, on sequence-stamped chunks
// of a stream (DESIGN.md §14).
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
// events (replay+obs) or head candidates and probe records (record mode).
// The buffers are reused across scans via Reset.
type SpecResult struct {
	Stats Stats
	Curs  []StateID
	Desyn []bool
	// Evs are the events of an obs scan, stamped with global edge indices.
	Evs []obs.Event
	// Cands are a record scan's head candidates in edge order.
	Cands []RecCand
	// Miss are a record scan's trace-side global-container searches, replayed
	// against the live index at drain time for probe-depth observability.
	Miss []ProbeRec
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
	r.Miss = r.Miss[:0]
}

// RecCand is one recording head candidate observed by a speculative record
// scan: the stream offset within the chunk and the candidate head address.
// The drain replays the hot-counter policy over these in order.
type RecCand struct {
	Idx  int32
	Head uint64
}

// ProbeRec is one trace-side miss of a record scan: the edge offset, the
// state the miss left, and the label searched. The reference recorder
// resolves these through its live global container (emitting probe-depth
// observations); a speculative scan resolves them against the immutable
// compiled entry table, so the drain re-issues the container searches to
// keep the observability registry byte-identical.
type ProbeRec struct {
	Idx   int32
	From  int32
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

// recStep consumes one record-mode edge: the memoryless transition (exactly
// step, keyed by the destination block head) plus the head-candidate and
// probe-record classification the fused MRET scan applies. A nil To edge is
// account-only (AccountTail semantics), matching Recorder.Observe.
func (c *Compiled) recStep(cur StateID, des bool, e *cfg.Edge, instrs uint64, st *Stats) (next StateID, ndes bool, cand bool, miss bool, head uint64) {
	if e.To == nil {
		st.AccountTail(cur, instrs)
		return cur, des, false, false, 0
	}
	head = e.To.Head
	if instrs != 0 {
		st.Blocks++
		st.Instrs += instrs
		if cur != NTE {
			st.TraceBlocks++
			st.TraceInstrs += instrs
		}
	}
	// backFast(e): taken edge whose source block's terminator is a direct
	// backward branch — the BackSrc precomputation shared with the strategies.
	back := e.Taken && e.From != nil && e.From.BackSrc
	prev := cur
	hit := false
	if cur != NTE {
		rec := &c.hot[cur]
		if rec.lab0 == head {
			hit = true
			next = rec.tgt0
		} else if rec.lab1 == head {
			hit = true
			next = rec.tgt1
		} else if t, ok := c.nextSlow(cur, head); ok {
			hit = true
			next = t
		}
		if hit {
			st.InTraceHits++
		} else {
			miss = true
			if !c.cold[cur].plausible(head) {
				st.Desyncs++
				des = true
			}
			st.GlobalLookups++
			if t, ok := c.entry(head); ok {
				st.GlobalHits++
				next = t
			}
			if next == NTE {
				st.TraceExits++
			} else {
				st.TraceLinks++
			}
		}
	} else {
		st.GlobalLookups++
		if t, ok := c.entry(head); ok {
			st.GlobalHits++
			next = t
			st.TraceEnters++
		}
	}
	if next != NTE && des {
		des = false
		st.Resyncs++
	}
	// Head-candidate policy, mirroring MRET.ObserveFused decide-before-mutate:
	// an in-trace hit on a taken backward branch whose target anchors no
	// trace, or any transition that lands in cold code off a trace exit or a
	// taken backward branch. (The fused scan's Root[cur] test is only a probe
	// shortcut: a root hit implies the head is traced, which c.entry answers
	// identically.)
	if hit {
		if back {
			if _, traced := c.entry(head); !traced {
				cand = true
			}
		}
	} else if next == NTE {
		cand = prev != NTE || back
	}
	return next, des, cand, miss, head
}

// SpecRecord speculatively scans a record-mode chunk from (NTE, in-sync)
// against the frozen compiled snapshot: the memoryless transition charges
// r.Stats, the trajectory feeds reconciliation, and the strategy-side
// effects are *deferred* — head candidates and trace-side misses are
// collected for the drain to replay in sequence order instead of being
// applied to shared state.
//
//tea:hotpath
func (c *Compiled) SpecRecord(edges []cfg.Edge, instrs []uint64, r *SpecResult) {
	r.Reset(len(edges))
	cur, des := NTE, false
	for k := range edges {
		var cand, miss bool
		var head uint64
		cur, des, cand, miss, head = c.recStep(cur, des, &edges[k], instrs[k], &r.Stats)
		if cand {
			r.Cands = append(r.Cands, RecCand{Idx: int32(k), Head: head})
		}
		if miss {
			r.Miss = append(r.Miss, ProbeRec{Idx: int32(k), From: int32(r.prevState(k)), Label: head})
		}
		r.Curs[k] = cur
		r.Desyn[k] = des
	}
}

// prevState returns the state before edge k of a partially filled
// trajectory (NTE before the first edge).
func (r *SpecResult) prevState(k int) StateID {
	if k == 0 {
		return NTE
	}
	return r.Curs[k-1]
}

// RecReplay replays edges[:upto] of a record-mode chunk from (cur, des)
// with the true transition function, returning the charges and exit state.
// The drain uses it to account the prefix of a chunk that ends in a
// recording trigger before handing the suffix to the sequential recorder.
//
//tea:hotpath
func (c *Compiled) RecReplay(edges []cfg.Edge, instrs []uint64, cur StateID, des bool, upto int) (Stats, StateID, bool) {
	var st Stats
	for j := 0; j < upto; j++ {
		cur, des, _, _, _ = c.recStep(cur, des, &edges[j], instrs[j], &st)
	}
	return st, cur, des
}

// RecMerge is the outcome of reconciling one speculatively scanned
// record-mode chunk against its true entry state.
type RecMerge struct {
	// Delta is the chunk's Stats contribution if accepted wholesale.
	Delta Stats
	// Cands / Miss are the reconciled candidate and probe lists: the true
	// prefix's recomputed entries followed by the speculative suffix's. The
	// slices alias Reconciler scratch (or the SpecResult) and are valid only
	// until the next Merge* call.
	Cands []RecCand
	Miss  []ProbeRec
	// ExitCur / ExitDes is the chunk's true exit state.
	ExitCur StateID
	ExitDes bool
}

// Reconciler carries the drain-side scratch buffers junction merges reuse
// across batches; the zero value is ready to use.
type Reconciler struct {
	trueEvs []obs.Event
	cands   []RecCand
	miss    []ProbeRec
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
// returned Delta, candidate list and probe list are exactly what a true
// scan from (cur, des) would have produced, with only the non-converged
// prefix re-replayed.
func (rc *Reconciler) MergeRecord(c *Compiled, edges []cfg.Edge, instrs []uint64, cur StateID, des bool, r *SpecResult) RecMerge {
	n := len(edges)
	m := RecMerge{ExitCur: cur, ExitDes: des}
	if n == 0 {
		return m
	}
	if cur == NTE && !des {
		m.Delta = r.Stats
		m.Cands = r.Cands
		m.Miss = r.Miss
		m.ExitCur, m.ExitDes = r.Curs[n-1], r.Desyn[n-1]
		return m
	}
	rc.cands = rc.cands[:0]
	rc.miss = rc.miss[:0]
	var trueSt Stats
	tcur, tdes := cur, des
	conv := -1
	for j := 0; j < n; j++ {
		prev := tcur
		var cand, miss bool
		var head uint64
		tcur, tdes, cand, miss, head = c.recStep(tcur, tdes, &edges[j], instrs[j], &trueSt)
		if cand {
			rc.cands = append(rc.cands, RecCand{Idx: int32(j), Head: head})
		}
		if miss {
			rc.miss = append(rc.miss, ProbeRec{Idx: int32(j), From: int32(prev), Label: head})
		}
		if tcur == r.Curs[j] && tdes == r.Desyn[j] {
			conv = j
			break
		}
	}
	if conv < 0 {
		m.Delta = trueSt
		m.Cands = rc.cands
		m.Miss = rc.miss
		m.ExitCur, m.ExitDes = tcur, tdes
		return m
	}
	var specSt Stats
	scur, sdes := NTE, false
	for j := 0; j <= conv; j++ {
		scur, sdes, _, _, _ = c.recStep(scur, sdes, &edges[j], instrs[j], &specSt)
	}
	delta := r.Stats
	delta.sub(&specSt)
	delta.add(&trueSt)
	for _, cd := range r.Cands {
		if int(cd.Idx) > conv {
			rc.cands = append(rc.cands, cd)
		}
	}
	for _, pr := range r.Miss {
		if int(pr.Idx) > conv {
			rc.miss = append(rc.miss, pr)
		}
	}
	m.Delta = delta
	m.Cands = rc.cands
	m.Miss = rc.miss
	m.ExitCur, m.ExitDes = r.Curs[n-1], r.Desyn[n-1]
	return m
}

// ReplayProbeEvents re-issues the trace-side global-container searches a
// speculative record scan resolved against the compiled snapshot: one live
// index lookup per ProbeRec, feeding the probe-depth histograms and
// CacheMissProbe events exactly as the sequential recorder's resolve path
// would, without touching Stats (the chunk's counters were already folded
// from the scan). No-op with no context attached — the searches exist only
// for observability.
func (r *Replayer) ReplayProbeEvents(misses []ProbeRec, base uint64) {
	o := r.obs
	if o == nil || len(misses) == 0 {
		return
	}
	evs := r.probeEvs[:0]
	for _, m := range misses {
		before := r.index.Probes()
		r.index.Lookup(m.Label)
		depth := r.index.Probes() - before
		o.Replay.ProbeDepth.Observe(depth)
		evs = append(evs, obs.Event{Edge: base + uint64(m.Idx), Aux: depth, State: m.From, Kind: obs.EvCacheMissProbe})
	}
	o.Tracer.EmitBatch(evs)
	o.SetEdge(evs[len(evs)-1].Edge)
	r.probeEvs = evs
}
