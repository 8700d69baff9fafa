package core

import (
	"unsafe"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/obs"
)

// This file holds the one memoryless scan (scan) and the sharded-replay
// primitives: speculative segment scans (SpecReplay and SpecRecord, each
// with its obs instance SpecReplayObs and SpecRecordObs) and junction
// reconciliation (Reconciler). internal/pipeline is the one executor that
// drives them across goroutines, on sequence-stamped chunks of a stream
// (DESIGN.md §14).
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
// from the guessed (NTE, in-sync) entry, the exit state, and — depending on
// the scan — collected events (obs scans) or head candidates and container
// searches (record mode). No per-edge trajectory is kept: reconciliation
// finds the junction by re-scanning the speculative side in lockstep with
// the true one (Reconciler). The buffers are reused across scans via Reset.
type SpecResult struct {
	Stats Stats
	// ExitCur / ExitDes is the post-state of the scan's last edge.
	ExitCur StateID
	ExitDes bool
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

// Reset clears the result for the next scan, reusing capacity.
func (r *SpecResult) Reset() {
	r.Stats = Stats{}
	r.ExitCur, r.ExitDes = NTE, false
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
// memoryless transition function, charging r.Stats and leaving the exit
// state in r.ExitCur / r.ExitDes.
//
// On a Specialize'd Compiled the scan consumes whole stride-table cycles at
// a time; a fused traversal charges the cycle's proved delta and, since a
// cycle exits where it entered, leaves the cursor as it found it.
//
//tea:hotpath
func (c *Compiled) SpecReplay(seg []Edge, r *SpecResult) {
	r.Reset()
	r.ExitCur, r.ExitDes, _ = scan[obsOff](c, seg, 0, NTE, false, &r.Stats, nil)
}

// SpecReplayObs is SpecReplay with event collection: identical Stats and
// exit state, with the segment's events appended to r.Evs stamped
// ebase+offset.
//
//tea:hotpath
func (c *Compiled) SpecReplayObs(seg []Edge, ebase uint64, r *SpecResult) {
	r.Reset()
	r.ExitCur, r.ExitDes, _ = scan[obsOn](c, seg, ebase, NTE, false, &r.Stats, &r.Evs)
}

// scan is the one memoryless scan, behind SpecReplay(Obs),
// SequentialReplay, AdvanceBatch without local caches and Specialize's
// bailout. It consumes seg from (cur, des), charging st, and returns the
// post-state and the number of edges fused stride cycles consumed (through
// fuse, the consumer the cached kernel shares). The obsOn instance appends
// the events to evs, stamped ebase+offset, and fuses only miss-free stride
// entries: miss positions emit events on the per-edge path (probe,
// entry-table-hit, exit records), while a miss-free traversal is all
// in-trace hits, which emit nothing.
//
// The obsOff instance on an unspecialized image resolves the two common
// edges inline — a row hit off a trace state (one pick, one compare) and an
// entry-table search from in-sync NTE — counting them in locals that fold
// into st once per call. Only unmatched labels and desynced cursors go
// through step. (A desync always leaves the cursor at NTE, so a
// trace-state cursor is in sync.)
//
//tea:hotpath
func scan[M obsMode](c *Compiled, seg []Edge, ebase uint64, cur StateID, des bool, st *Stats, evs *[]obs.Event) (StateID, bool, uint64) {
	var mode M
	emitting := unsafe.Sizeof(mode) != 0
	if len(c.stride) == 0 && !emitting {
		hot := c.hot
		// Row hits: instructions, zero-instruction edges, and how many of
		// the slots were links and exits (the rest are in-trace hits).
		// In-sync NTE edges: the same, with searches and entries. Edge
		// counts are derived at the end, so the common paths update few
		// locals.
		var ti, tz, links, exits uint64
		var ni, nz, lookups, enters, stepped uint64
		for k := range seg {
			label, in := seg[k].Label, seg[k].Instrs
			if cur != NTE {
				lab, tgt, kind := hot[cur].pick(label)
				if lab == label {
					ti += in
					if in == 0 {
						tz++
					}
					links += uint64(kind & slotLink)
					exits += uint64(kind >> 1)
					cur = tgt
					continue
				}
			} else if !des {
				ni += in
				if in == 0 {
					nz++
				}
				lookups++
				if t, ok := c.entry(label); ok {
					enters++
					cur = t
				}
				continue
			}
			stepped++
			cur, des = step[obsOff](c, cur, des, label, in, st, nil, 0)
		}
		rows := uint64(len(seg)) - lookups - stepped
		st.Blocks += rows - tz + lookups - nz
		st.Instrs += ti + ni
		st.TraceBlocks += rows - tz
		st.TraceInstrs += ti
		st.InTraceHits += rows - links - exits
		st.GlobalLookups += lookups + links + exits
		st.GlobalHits += enters + links
		st.TraceEnters += enters
		st.TraceLinks += links
		st.TraceExits += exits
		return cur, des, 0
	}
	// A Specialize'd image, or the obsOn instance: the stride probe at each
	// in-sync trace state, then step. The memoryless scan is exactly the
	// simulation that proved each entry — every miss resolves through the
	// immutable entry table — so a matched entry fuses unconditionally,
	// charged DeltaGlobal per traversal.
	hot := c.hot
	var fused uint64
	for k := 0; k < len(seg); {
		if cur != NTE && !des {
			if si := hot[cur].stride; si >= 0 {
				if si, end, runs := c.fuse(seg, k, si, emitting, nil, 0); runs != 0 {
					st.addScaled(&c.stride[si].DeltaGlobal, runs)
					fused += uint64(end - k)
					k = end
					continue // the cycle exits where it entered: cur unchanged
				}
			}
		}
		if emitting {
			cur, des = step[obsOn](c, cur, des, seg[k].Label, seg[k].Instrs, st, evs, ebase+uint64(k))
		} else {
			cur, des = step[obsOff](c, cur, des, seg[k].Label, seg[k].Instrs, st, nil, 0)
		}
		k++
	}
	return cur, des, fused
}

// recScan is the one body of the record-mode scans. It consumes edges from
// (cur, des) through step — the same memoryless transition function the
// replay scans use, keyed by the destination block head — charging
// r.Stats, setting the exit state and collecting the head candidates; the
// obsOn instance also collects the events, stamped with chunk-local ticks,
// and every global-container search. A nil-To edge only accounts
// (AccountTail semantics), matching Recorder.Observe.
//
// The candidate policy is MRET's, decided before any strategy mutation: an
// in-trace hit on a taken backward branch whose target anchors no trace, or
// any transition that lands in cold code off a trace exit or a taken
// backward branch.
//
// With shadow non-nil the scan also steps a speculative cursor from (NTE,
// in-sync) in lockstep, charging shadow's Stats only, and ends after the
// first edge where the two post-states are equal — the junction where a
// true re-replay meets the speculative scan — returning that edge's index
// (r's exit state is then the junction's post-state); otherwise, or if the
// two never touch, it returns -1.
//
//tea:hotpath
func recScan[M obsMode](c *Compiled, edges []cfg.Edge, instrs []uint64, cur StateID, des bool, r *SpecResult, shadow *Stats) int {
	var mode M
	emitting := unsafe.Sizeof(mode) != 0
	r.Reset()
	r.obs = emitting
	st := &r.Stats
	tick := 0
	scur, sdes := NTE, false
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
		if shadow != nil {
			if e.To == nil {
				shadow.AccountTail(scur, instrs[k])
			} else {
				scur, sdes = step[obsOff](c, scur, sdes, e.To.Head, instrs[k], shadow, nil, 0)
			}
			if cur == scur && des == sdes {
				r.Ticks = tick
				r.ExitCur, r.ExitDes = cur, des
				return k
			}
		}
	}
	r.Ticks = tick
	r.ExitCur, r.ExitDes = cur, des
	return -1
}

// SpecRecord speculatively scans a record-mode chunk from (NTE, in-sync)
// against the frozen compiled snapshot: the memoryless transition charges
// r.Stats and sets the exit state, and the strategy-side effects are
// *deferred* — head candidates are collected for the drain to replay in
// sequence order instead of being applied to shared state.
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
	return r.ExitCur, r.ExitDes
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
	// tr holds a record merge's true re-replay.
	tr SpecResult
}

// Merge reconciles one speculatively scanned segment against its true entry
// state (cur, des), returning the segment's true Stats contribution and exit
// state. An entry at NTE needs no re-replay: in sync, the speculative result
// is exact; desynced, it differs by the one resync where the speculation
// first enters a trace. With a non-nil merged, the reconciled segment's
// events — the true prefix's, stamped from ebase, followed by the
// speculative suffix's — are appended to *merged, so the concatenation over
// all segments equals the sequential event stream; a nil merged runs the
// obsOff instance.
func (rc *Reconciler) Merge(c *Compiled, seg []Edge, ebase uint64, cur StateID, des bool, r *SpecResult, merged *[]obs.Event) (Stats, StateID, bool) {
	if merged == nil {
		return merge[obsOff](rc, c, seg, 0, cur, des, r, nil)
	}
	return merge[obsOn](rc, c, seg, ebase, cur, des, r, merged)
}

// merge is the body of Merge, one instance per observability mode. It
// re-replays the segment from the true entry state and, in lockstep, from
// the speculation's (NTE, in-sync), until the first edge after which the
// two post-states are equal: the junction. The speculative side's charges
// up to it are exactly the prefix r.Stats holds in excess, so they are
// swapped for the true side's (and, in the obsOn instance, the speculative
// prefix's events for the true prefix's); past the junction r is kept
// verbatim, exit state included. Finding the junction costs two steps per prefix edge, the same
// as re-replaying each side of the prefix in turn.
//
// An entry at NTE needs no step. In sync, it is the speculation's own.
// Desynced, the two sides take the same path until the speculation's first
// trace entry (r.Evs[0] in the obsOn instance), where the true side also
// resyncs and the two meet; without a trace entry they never meet, and the
// true exit is (NTE, desynced).
func merge[M obsMode](rc *Reconciler, c *Compiled, seg []Edge, ebase uint64, cur StateID, des bool, r *SpecResult, merged *[]obs.Event) (Stats, StateID, bool) {
	var mode M
	emitting := unsafe.Sizeof(mode) != 0
	if cur == NTE {
		out, evs := r.Stats, r.Evs
		if des {
			if out.TraceEnters == 0 {
				return out, NTE, true
			}
			out.Resyncs++
			if emitting {
				e := evs[0]
				*merged = append(*merged, e)
				emit(merged, e.Edge, e.Aux, StateID(e.State), obs.EvResync)
				evs = evs[1:]
			}
		}
		if emitting {
			*merged = append(*merged, evs...)
		}
		return out, r.ExitCur, r.ExitDes
	}
	var trueSt, specSt Stats
	if emitting {
		rc.trueEvs = rc.trueEvs[:0]
	}
	tcur, tdes := cur, des
	scur, sdes := NTE, false
	for j := range seg {
		label, in := seg[j].Label, seg[j].Instrs
		if emitting {
			tcur, tdes = step[obsOn](c, tcur, tdes, label, in, &trueSt, &rc.trueEvs, ebase+uint64(j))
		} else {
			tcur, tdes = step[obsOff](c, tcur, tdes, label, in, &trueSt, nil, 0)
		}
		// The speculative prefix's events are cut from r.Evs by stamp, so
		// its re-scan needs only the Stats.
		scur, sdes = step[obsOff](c, scur, sdes, label, in, &specSt, nil, 0)
		if tcur == scur && tdes == sdes {
			out := r.Stats
			out.sub(&specSt)
			out.add(&trueSt)
			if emitting {
				// Speculative events stamped past the junction edge are the
				// kept suffix.
				cut := evsAfter(r.Evs, ebase+uint64(j))
				*merged = append(*merged, rc.trueEvs...)
				*merged = append(*merged, r.Evs[cut:]...)
			}
			return out, r.ExitCur, r.ExitDes
		}
	}
	// The two sides never touched (a tiny segment, or one entered desynced
	// in cold code that reaches no trace entry): the true re-replay covered
	// the whole segment and replaces the speculation.
	if emitting {
		*merged = append(*merged, rc.trueEvs...)
	}
	return trueSt, tcur, tdes
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
	if cur == NTE && !des {
		return RecMerge{Delta: r.Stats, Cands: r.Cands, Evs: r.Evs, Searches: r.Searches,
			ExitCur: r.ExitCur, ExitDes: r.ExitDes}
	}
	// The true re-replay runs with the speculative side as its shadow, which
	// charges the speculative prefix to specSt.
	tr := &rc.tr
	var specSt Stats
	var conv int
	if emitting {
		conv = recScan[obsOn](c, edges, instrs, cur, des, tr, &specSt)
	} else {
		conv = recScan[obsOff](c, edges, instrs, cur, des, tr, &specSt)
	}
	if conv < 0 {
		// The two sides never touched: the true re-replay covered the whole
		// chunk and replaces the speculation.
		return RecMerge{Delta: tr.Stats, Cands: tr.Cands, Evs: tr.Evs, Searches: tr.Searches,
			ExitCur: tr.ExitCur, ExitDes: tr.ExitDes}
	}
	// Swap the speculative prefix's charges for the true prefix's, and keep
	// the speculative entries past the junction: candidates by edge index,
	// events and searches by tick (tr.Ticks counts the ticks through the
	// junction edge).
	m := RecMerge{Delta: r.Stats, ExitCur: r.ExitCur, ExitDes: r.ExitDes}
	m.Delta.sub(&specSt)
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
