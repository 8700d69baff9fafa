package core

import (
	"unsafe"

	"github.com/lsc-tea/tea/internal/obs"
)

// Edge is one event of a dynamic block stream in replay currency: the
// previously executing block retired Instrs dynamic instructions and
// control arrived at the block headed at Label — exactly the argument pair
// of Replayer.Advance, reified so streams can be captured, sharded and
// batched. faultinject.BlockEvent is the same shape on the test side.
type Edge struct {
	Label  uint64
	Instrs uint64
}

// CompiledReplayer is the cursor over a Compiled automaton. It reproduces
// the reference Replayer's observable behaviour exactly — the same Stats
// counters, including Desyncs/Resyncs, for the same stream and the same
// Local configuration — but runs on the flat arrays: no interface dispatch,
// no per-state cache allocation, and one entry point, AdvanceBatch, that
// amortizes call and bookkeeping overhead across whole stream slices.
//
// All mutable state (cursor, desync flag, stats, local-cache words) lives
// here; the Compiled itself is shared and read-only.
type CompiledReplayer struct {
	c *Compiled

	// cache holds the embedded per-state local caches: localSize
	// direct-mapped slots per state in one flat allocation, made once at
	// construction, label and target interleaved per slot. Zeroed slots
	// behave exactly like the reference's fresh caches (label 0 mapping to
	// NTE). It is nil on a form compiled without local caches, whose
	// batches run the memoryless scan.
	cache []cacheSlot

	cur      StateID
	desynced bool
	stats    Stats

	// obs is the (nil when disabled) observability sink. With it attached,
	// AdvanceBatch runs the obsOn kernel instances, which stage events in
	// evs (reused across batches) for one ingest per batch, and folds the
	// counters once from the batch's stats delta.
	obs *obs.Obs
	evs []obs.Event

	// strideEdges counts edges consumed through fused stride-table hits. It
	// lives outside Stats on purpose: Stats must stay byte-identical to the
	// reference replayer, and the reference has no stride path. The ratio
	// strideEdges/total is the bench suite's cycle_hit_rate.
	strideEdges uint64

	// cacheGen counts local-cache slot writes; warmGen[si] memoizes, per
	// stride entry, the generation at which its warm check last passed
	// (stored as gen+1 so the zero value means "never checked"). Once the
	// caches reach steady state no slot is written again, cacheGen stops
	// moving, and the per-attach warm check collapses from a chain of
	// dependent cache loads to one integer compare.
	cacheGen uint64
	warmGen  []uint64
}

// cacheSlot is one direct-mapped local-cache entry. The zero value (label 0
// → NTE) is exactly the reference localCache's pristine slot.
type cacheSlot struct {
	label uint64
	tgt   StateID
}

// NewCompiledReplayer prepares a cursor over c. The returned replayer
// performs no further heap allocation: steady-state replay is 0 allocs/edge.
func NewCompiledReplayer(c *Compiled) *CompiledReplayer {
	r := &CompiledReplayer{c: c, cur: NTE}
	if c.localSize > 0 {
		r.cache = make([]cacheSlot, c.NumStates()*c.localSize)
		if len(c.stride) > 0 {
			r.warmGen = make([]uint64, len(c.stride))
		}
	}
	return r
}

// Compiled returns the frozen automaton being replayed.
func (r *CompiledReplayer) Compiled() *Compiled { return r.c }

// Cur returns the current state.
func (r *CompiledReplayer) Cur() StateID { return r.cur }

// Stats returns the accumulated counters.
func (r *CompiledReplayer) Stats() *Stats { return &r.stats }

// Desynced reports whether the cursor is currently desynchronized.
func (r *CompiledReplayer) Desynced() bool { return r.desynced }

// StrideEdges returns how many edges were consumed through fused
// stride-table hits (0 on an unspecialized Compiled). Deliberately not part
// of Stats, which stays byte-identical to the reference replayer.
func (r *CompiledReplayer) StrideEdges() uint64 { return r.strideEdges }

// Reset rewinds the cursor to NTE and zeroes the statistics, keeping the
// (warm) local caches — the same contract as Replayer.Reset.
func (r *CompiledReplayer) Reset() {
	r.cur = NTE
	r.desynced = false
	r.stats = Stats{}
	r.strideEdges = 0
}

// AccountOnly records instrs executed without advancing the automaton
// (the trailing instructions a pin.Tool receives in Fini).
func (r *CompiledReplayer) AccountOnly(instrs uint64) {
	prev := r.stats
	r.stats.AccountTail(r.cur, instrs)
	if o := r.obs; o != nil {
		d := r.stats
		d.sub(&prev)
		FoldReplayObs(o, 0, &d)
	}
}

// AdvanceBatch consumes a slice of stream edges and returns the final
// state. It allocates nothing and keeps the cursor, desync flag and stats
// in locals across the whole batch, writing them back once; a batch
// boundary changes nothing, so one edge per call gives the same results.
// A form compiled without local caches runs the memoryless scan (shard.go).
//
// On a Specialize'd Compiled the loop first tries the cursor's fused
// stride-table chain: a hit consumes the cycle's k edges (and every
// immediately repeating traversal) with one flat comparison per traversal
// and a constant-time stats update, then falls back to the per-edge kernel
// at the cycle exit. Stride hits are byte-equivalent to k per-edge steps —
// Specialize only admits cycles whose every transition is an in-trace hit —
// so Stats, cursor and desync behaviour are unchanged.
//
// With an observability context attached the batch runs the obsOn instance
// of the same kernel: events stamped base+k are staged from its slow
// branches and ingested once, and the counters fold once from the batch's
// stats delta, so enabled mode adds no per-edge atomics or locks. The
// obsOff instance carries no obs code at all (obsmode.go).
//
//tea:hotpath
func (r *CompiledReplayer) AdvanceBatch(edges []Edge) StateID {
	o := r.obs
	if o == nil {
		return advanceBatch[obsOff](r, edges, 0)
	}
	prev := r.stats
	base := o.EdgeBase()
	r.evs = r.evs[:0]
	cur := advanceBatch[obsOn](r, edges, base)
	o.AdvanceEdges(uint64(len(edges)))
	d := r.stats
	d.sub(&prev)
	FoldReplayObs(o, 0, &d)
	o.IngestReplay(r.evs)
	return cur
}

// advanceBatch picks the batch's kernel: the memoryless scan without local
// caches, else the cached kernel, instantiated with the stride probe only
// for a form that carries a stride table.
func advanceBatch[M obsMode](r *CompiledReplayer, edges []Edge, base uint64) StateID {
	if r.cache == nil {
		var fused uint64
		r.cur, r.desynced, fused = scan[M](r.c, edges, base, r.cur, r.desynced, &r.stats, &r.evs)
		r.strideEdges += fused
		return r.cur
	}
	if len(r.c.stride) != 0 {
		return advanceCached[M, strideOn](r, edges, base)
	}
	return advanceCached[M, strideOff](r, edges, base)
}

// advanceCached is the batch kernel of a form compiled with local caches:
// one edge per iteration through the in-trace slots, the local cache and the
// entry table, exactly as the reference resolves it. Its strideOn instance
// first tries the fused stride-table chain at every in-sync trace state
// (fuse), charging DeltaLocal per traversal; the strideOff instance, for a
// form without a table, has no probe. In the obsOn instances only miss-free
// entries fuse: every miss position — warm trace link, trace exit or NTE
// crossing — emits events on the per-edge path (EntryTableHit fires even on
// warm local hits), and a fused traversal must suppress nothing. Pure
// in-trace traversals emit nothing.
//
//tea:hotpath
func advanceCached[M obsMode, S strideMode](r *CompiledReplayer, edges []Edge, base uint64) StateID {
	var mode M
	var table S
	emitting := unsafe.Sizeof(mode) != 0
	fusing := unsafe.Sizeof(table) != 0
	c := r.c
	cur, desynced := r.cur, r.desynced
	st := r.stats
	strideEdges := r.strideEdges
	cacheGen := r.cacheGen
	localSize := c.localSize
	localMask := uint64(localSize - 1)
	// Hoist the arrays into locals: the in-loop stores to the cache slice
	// would otherwise force the compiler to reload every slice header on
	// each iteration (the stores could alias them).
	hot := c.hot
	cold := c.cold
	probes := c.strideProbe
	cache := r.cache
	n := len(edges)

	for k := 0; k < n; k++ {
		// Fused trace-cycle fast path: when the cursor anchors a stride chain
		// and is in sync, fuse consumes a whole cycle traversal — and its
		// repeats — without touching the per-edge slots. A traversal exits
		// where it entered, so cur is unchanged. (A desync always leaves the
		// cursor at NTE, so a trace-state cursor is in sync.)
		if fusing && cur != NTE {
			if si := hot[cur].stride; si >= 0 {
				if si, end, runs := c.fuse(edges, k, si, emitting, r, cacheGen); runs != 0 {
					if p := &probes[si]; p.m == 1 && p.miss == 0 && p.first.Instrs != 0 {
						// In-trace self-loop run: every traversal is one
						// in-trace hit of first.Instrs instructions, so the
						// delta comes from the probe record alone.
						st.Blocks += runs
						st.TraceBlocks += runs
						st.Instrs += p.first.Instrs * runs
						st.TraceInstrs += p.first.Instrs * runs
						st.InTraceHits += runs
					} else {
						st.addScaled(&c.stride[si].DeltaLocal, runs)
					}
					strideEdges += uint64(end - k)
					k = end - 1 // the loop's k++ steps past the last traversal
					continue
				}
			}
		}

		label, instrs := edges[k].Label, edges[k].Instrs
		eidx := base + uint64(k)

		// Account the finished block to the state that covered it. The
		// initial pseudo-edge carries no finished block (instrs == 0).
		if instrs != 0 {
			st.Blocks++
			st.Instrs += instrs
			if cur != NTE {
				st.TraceBlocks++
				st.TraceInstrs += instrs
			}
		}

		var next StateID
		if cur != NTE {
			// Slot fast path. An in-trace slot is tested slot by slot, as
			// the predicted branches the batch kernels measured fastest
			// with. Otherwise the slot the label can match is a row's link
			// or exit, which goes through the local cache; a local miss
			// takes the row's resolved target instead of probing the entry
			// table.
			rec := &hot[cur]
			if rec.lab0 == label && rec.kind0 == slotTrace {
				st.InTraceHits++
				next = rec.tgt0
			} else if rec.lab1 == label && rec.kind1 == slotTrace {
				st.InTraceHits++
				next = rec.tgt1
			} else {
				lab, tgt, kind := rec.pickBranch(label)
				if t, ok := c.unmatchedTail(cur, lab, label); ok {
					st.InTraceHits++
					next = t
				} else {
					matched := lab == label
					if !matched && !cold[cur].plausible(label) {
						st.Desyncs++
						desynced = true
						if emitting {
							emit(&r.evs, eidx, label, cur, obs.EvDesync)
						}
					}
					// Trace exit or trace-to-trace link: the local cache in
					// front of the flat entry table, caching negative results
					// exactly like the reference resolve.
					slot := &cache[int(cur)*localSize+int((label>>1)&localMask)]
					if slot.label == label {
						st.LocalHits++
						next = slot.tgt
					} else {
						st.LocalMisses++
						st.GlobalLookups++
						if emitting {
							var depth uint64
							t, ok, depth = c.entryProbes(label)
							emit(&r.evs, eidx, depth, cur, obs.EvCacheMissProbe)
						} else if matched {
							t, ok = tgt, kind == slotLink
						} else {
							t, ok = c.entry(label)
						}
						next = NTE
						if ok {
							st.GlobalHits++
							next = t
						}
						slot.label = label
						slot.tgt = next
						if fusing {
							// A slot write can only cool a stride entry,
							// so fuse re-checks warmth after one.
							cacheGen++
						}
					}
					if next == NTE {
						st.TraceExits++
						if emitting {
							emit(&r.evs, eidx, label, cur, obs.EvTraceExit)
						}
					} else {
						st.TraceLinks++
						if emitting {
							emit(&r.evs, eidx, label, next, obs.EvEntryTableHit)
						}
					}
				}
			}
		} else {
			// From NTE every transition searches the global container.
			st.GlobalLookups++
			if t, ok := c.entry(label); ok {
				st.GlobalHits++
				next = t
				st.TraceEnters++
				if emitting {
					emit(&r.evs, eidx, label, next, obs.EvTraceEnter)
				}
			} else {
				next = NTE
			}
		}

		if next != NTE && desynced {
			desynced = false
			st.Resyncs++
			if emitting {
				emit(&r.evs, eidx, label, next, obs.EvResync)
			}
		}
		cur = next
	}

	r.cur, r.desynced = cur, desynced
	r.stats = st
	r.strideEdges = strideEdges
	r.cacheGen = cacheGen
	return cur
}

// fuse is the one fused-cycle consumer, behind the cached kernel, scan and
// Specialize's sample selection and mining. It walks the stride chain
// headed at si for the first entry that matches seg at k — the first edge
// against the compact probe record, then the whole pattern — and counts
// that entry's back-to-back traversals. It returns the entry, the index past
// its last traversal and the traversal count; runs == 0 when no entry
// matched. A probe miss costs two scalar compares against an L1-resident
// record and never dereferences the full entry, and a single-edge miss-free
// match — the dominant fused shape — resolves from the probe record alone.
//
// One-edge runs are counted four traversals per iteration (independent
// compares, no carried dependency, which is what the typical 5–40 edge run
// length rewards); a longer pattern takes one flat compare per traversal,
// upgraded to whole-tile compares (the pattern pre-repeated to ~128 edges)
// once four traversals are confirmed, so short runs never pay for a failed
// tile compare and long runs go at vectorized-memequal speed. Counting
// inside the chain walk, rather than in a second call, was measured: a
// separate counting function cost 901.steady's stride rows about 30%. The
// one-edge loop issues no software prefetch: a PREFETCHT0 helper call
// every four edges (assembly never inlines, so each call spills the loop's
// registers) measured up to 20% slower than none on 902.stream.
//
// noMiss passes over entries with miss positions (the obsOn kernels: a miss
// position emits events on the per-edge path). warm is nil for the
// memoryless scans, where the immutable entry table that proved an entry
// answers its misses the same way at replay time, so every match fuses. The
// cached kernel passes its replayer: an entry with miss positions fuses only
// while the local caches already hold each non-NTE miss's resolution (a warm
// hit never writes the slot). The check memoizes on the cache write
// generation gen: while no slot has been written since the last pass,
// warmth cannot have been lost.
//
//tea:hotpath
func (c *Compiled) fuse(seg []Edge, k int, si int32, noMiss bool, warm *CompiledReplayer, gen uint64) (int32, int, uint64) {
	probes := c.strideProbe
	n := len(seg)
	for ; si >= 0; si = probes[si].next {
		p := &probes[si]
		m := int(p.m)
		if m > n-k || seg[k] != p.first || noMiss && p.miss != 0 {
			continue
		}
		var e *StrideEntry
		if m > 1 || p.miss != 0 {
			e = &c.stride[si]
			if m > 1 && !edgesEqual(seg[k:k+m], e.Pattern) {
				continue
			}
			if p.miss != 0 && warm != nil && warm.warmGen[si] != gen+1 {
				if !warm.strideMissWarm(e) {
					continue
				}
				warm.warmGen[si] = gen + 1
			}
		}
		runs := uint64(1)
		k += m
		if m == 1 {
			pe := p.first
			for k+4 <= n && seg[k] == pe && seg[k+1] == pe && seg[k+2] == pe && seg[k+3] == pe {
				runs += 4
				k += 4
			}
			for k < n && seg[k] == pe {
				runs++
				k++
			}
			return si, k, runs
		}
		for m <= n-k && edgesEqual(seg[k:k+m], e.Pattern) {
			runs++
			k += m
			if tl := len(e.Tile); runs == 4 && tl != 0 {
				for tl <= n-k && edgesEqual(seg[k:k+tl], e.Tile) {
					runs += e.TileReps
					k += tl
				}
			}
		}
		return si, k, runs
	}
	return noStride, k, 0
}

// strideMissWarm reports whether every miss position of e consumed from a
// non-NTE state currently resolves as a warm local-cache hit to exactly the
// state the trajectory proves (slot.tgt == NTE is a valid warm negative
// hit). That is the condition under which fusing the traversal is
// byte-equivalent to per-edge replay on the cached kernels: a warm hit
// charges LocalHits plus the link/exit counter and never writes the slot,
// which is exactly DeltaLocal's expansion. Positions consumed from NTE
// bypass the cache on every kernel (the immutable entry table answers
// them), so they need no check. Called once per chain attach and only for
// entries with misses; callers guarantee localSize > 0.
//
//tea:hotpath
func (r *CompiledReplayer) strideMissWarm(e *StrideEntry) bool {
	localSize := r.c.localSize
	localMask := uint64(localSize - 1)
	cache := r.cache
	for _, p := range e.MissPos {
		from := e.Anchor
		if p > 0 {
			from = e.States[p-1]
		}
		if from == NTE {
			continue
		}
		lbl := e.Pattern[p].Label
		slot := &cache[int(from)*localSize+int((lbl>>1)&localMask)]
		if slot.label != lbl || slot.tgt != e.States[p] {
			return false
		}
	}
	return true
}

// unmatchedTail is nextSlow for the cached kernels' slot miss, where lab
// is the label of the slot pickBranch chose: a label that matched it is a
// row state's link or exit, and a row state's span has no tail to scan.
func (c *Compiled) unmatchedTail(s StateID, lab, label uint64) (StateID, bool) {
	if lab == label {
		return NTE, false
	}
	return c.nextSlow(s, label)
}

// nextSlow scans the tail of a state's transition span; only states with
// more than two in-trace successors (indirect-branch TBBs) ever have one.
func (c *Compiled) nextSlow(s StateID, label uint64) (StateID, bool) {
	lo, hi := c.off[s], c.off[s+1]
	if hi-lo <= 2 {
		return NTE, false
	}
	for j := lo + 2; j < hi; j++ {
		if c.labels[j] == label {
			return c.targets[j], true
		}
	}
	return NTE, false
}
