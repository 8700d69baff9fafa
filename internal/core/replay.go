package core

import (
	"github.com/lsc-tea/tea/internal/btree"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/trace"
)

// Replayer walks a TEA along the dynamic block stream of an unmodified
// program execution, maintaining the precise map from the current program
// counter to the TBB being "executed" — the paper's trace replaying
// use-case (§4, Table 2).
//
// The transition function is the performance-critical piece the paper
// ablates in Table 4: in-trace transitions resolve against the current
// state's own (tiny) transition table; every other transition — trace
// entry from cold code, or trace-to-trace linking at an exit — must search
// the global trace container, optionally front-ended by the current
// state's local cache.
type Replayer struct {
	a     *Automaton
	cfg   LookupConfig
	index EntryIndex

	caches   []*localCache
	cur      StateID
	desynced bool
	stats    Stats

	// obs is the (nil when disabled) observability sink; obsFolded remembers
	// the stats already folded into its counters, so FlushObs charges deltas
	// and never double-counts. evs stages one Advance's events for
	// obs.IngestReplay.
	obs       *obs.Obs
	obsFolded Stats
	evs       []obs.Event

	// gen is the local-cache generation. AddEntry bumps it instead of
	// walking and zeroing every allocated cache; a cache whose stamp lags
	// behind gen is flushed lazily on its next use (see cacheFor), which is
	// observably identical to the old eager flush-all.
	gen uint64
}

// Stats aggregates the counters of one replayed (or recorded) execution.
type Stats struct {
	// Blocks and Instrs total the observed execution.
	Blocks uint64
	Instrs uint64
	// TraceBlocks and TraceInstrs total execution mapped to a TBB state.
	// TraceInstrs/Instrs is the paper's "coverage".
	TraceBlocks uint64
	TraceInstrs uint64

	// InTraceHits counts transitions resolved inside a state's own table.
	InTraceHits uint64
	// LocalHits and LocalMisses count local-cache consultations.
	LocalHits   uint64
	LocalMisses uint64
	// GlobalLookups counts searches of the global trace container;
	// GlobalHits those that found a trace.
	GlobalLookups uint64
	GlobalHits    uint64

	// TraceEnters counts NTE→trace transitions, TraceLinks trace→trace
	// transitions, and TraceExits trace→NTE transitions.
	TraceEnters uint64
	TraceLinks  uint64
	TraceExits  uint64

	// Desyncs counts stream labels that are impossible successors of the
	// current state's block — evidence that the automaton does not describe
	// the observed execution (a stale or foreign TEA, a perturbed program,
	// or a lossy block stream). The replayer degrades gracefully: it falls
	// back toward NTE and keeps consuming the stream instead of attributing
	// garbage coverage. Resyncs counts trace re-acquisitions after a
	// desync. A replay with Desyncs > 0 completed, but its automaton and
	// program disagree; coverage for the desynced spans is attributed to
	// cold code.
	Desyncs uint64
	Resyncs uint64
}

// Desynced reports whether the replay has ever observed an impossible
// transition (Desyncs > 0).
func (s *Stats) Desynced() bool { return s.Desyncs > 0 }

// addScaled accumulates n copies of delta d — the fused stride kernels use
// it to collapse n proved traversals into one Stats update.
func (s *Stats) addScaled(d *Stats, n uint64) {
	s.Blocks += d.Blocks * n
	s.Instrs += d.Instrs * n
	s.TraceBlocks += d.TraceBlocks * n
	s.TraceInstrs += d.TraceInstrs * n
	s.InTraceHits += d.InTraceHits * n
	s.LocalHits += d.LocalHits * n
	s.LocalMisses += d.LocalMisses * n
	s.GlobalLookups += d.GlobalLookups * n
	s.GlobalHits += d.GlobalHits * n
	s.TraceEnters += d.TraceEnters * n
	s.TraceLinks += d.TraceLinks * n
	s.TraceExits += d.TraceExits * n
	s.Desyncs += d.Desyncs * n
	s.Resyncs += d.Resyncs * n
}

// Coverage returns the fraction of dynamic instructions executed while
// inside a trace (the "Coverage" column of Tables 2 and 3).
func (s *Stats) Coverage() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.TraceInstrs) / float64(s.Instrs)
}

// NewReplayer prepares a replayer over automaton a with the given
// transition-function configuration. The global container is populated
// from the automaton's entry table; the B+ tree container is bulk-loaded
// from the (already sorted) entries rather than grown split by split.
func NewReplayer(a *Automaton, cfg LookupConfig) *Replayer {
	cfg = cfg.withDefaults()
	r := &Replayer{a: a, cfg: cfg, cur: NTE}
	entries := a.Entries()
	if cfg.Global == GlobalBTree {
		keys := make([]uint64, len(entries))
		vals := make([]StateID, len(entries))
		for i, e := range entries {
			keys[i], vals[i] = e.Addr, e.State
		}
		r.index = &btreeIndex{t: btree.Bulk(cfg.Fanout, keys, vals)}
	} else {
		r.index = newEntryIndex(cfg)
		for _, e := range entries {
			r.index.Insert(e.Addr, e.State)
		}
	}
	r.index.ResetProbes()
	return r
}

// Automaton returns the automaton being replayed.
func (r *Replayer) Automaton() *Automaton { return r.a }

// Config returns the transition-function configuration.
func (r *Replayer) Config() LookupConfig { return r.cfg }

// Index exposes the global container (for probe accounting).
func (r *Replayer) Index() EntryIndex { return r.index }

// Cur returns the current state.
func (r *Replayer) Cur() StateID { return r.cur }

// Stats returns the accumulated counters.
func (r *Replayer) Stats() *Stats { return &r.stats }

// Desynced reports whether the cursor is currently desynchronized: an
// impossible transition was observed and no trace has been re-acquired
// since. While desynced, the cursor sits at (or near) NTE and coverage is
// attributed to cold code.
func (r *Replayer) Desynced() bool { return r.desynced }

// Reset rewinds the cursor to NTE and zeroes the statistics. The global
// container and local caches are kept.
func (r *Replayer) Reset() {
	r.cur = NTE
	r.desynced = false
	r.stats = Stats{}
	r.obsFolded = Stats{}
}

// AddEntry registers a trace entry created after the replayer was built
// (used by the online recorder as traces finish). All local caches are
// logically flushed: they may hold negative entries for the new trace's
// address. The flush is O(1) — a generation bump — rather than a walk over
// every allocated cache: each cache is zeroed lazily the next time it is
// consulted, and until then its contents are unreachable, which is
// equivalent to the old eager flush. The online recorder calls this once
// per created trace, so on record-heavy runs the old O(states) walk was
// quadratic in the trace count.
func (r *Replayer) AddEntry(addr uint64, s StateID) {
	r.index.Insert(addr, s)
	r.gen++
}

// Advance consumes one edge of the dynamic block stream: the previous block
// finished after executing instrs dynamic instructions, and control
// transferred to the block headed at label. The instructions are accounted
// to the state that covered the finished block (the current state), then
// the automaton transitions on label. It returns the new state.
func (r *Replayer) Advance(label uint64, instrs uint64) StateID {
	r.account(r.cur, instrs)
	from := r.cur
	o := r.obs
	var next StateID
	if from != NTE {
		if t, ok := r.a.State(from).Next(label); ok {
			r.stats.InTraceHits++
			next = t
		} else {
			// A label that is not even a *possible* successor of the current
			// block means the automaton and the observed execution have
			// diverged (stale/foreign TEA, perturbed program, lossy stream).
			// Record the desync and degrade: the transition below falls back
			// toward NTE (or re-enters whatever trace anchors at label), and
			// the replay keeps going instead of producing garbage coverage.
			if !plausibleSuccessor(r.a.State(from).TBB, label) {
				r.stats.Desyncs++
				r.desynced = true
				if o != nil {
					emit(&r.evs, o.EdgeBase(), label, from, obs.EvDesync)
				}
			}
			next = r.resolve(from, label)
			if next == NTE {
				r.stats.TraceExits++
				if o != nil {
					emit(&r.evs, o.EdgeBase(), label, from, obs.EvTraceExit)
				}
			} else {
				r.stats.TraceLinks++
				if o != nil {
					emit(&r.evs, o.EdgeBase(), label, next, obs.EvEntryTableHit)
				}
			}
		}
	} else {
		next = r.lookupGlobal(label)
		if next != NTE {
			r.stats.TraceEnters++
			if o != nil {
				emit(&r.evs, o.EdgeBase(), label, next, obs.EvTraceEnter)
			}
		}
	}
	if next != NTE && r.desynced {
		// Back on a recorded trace after a desync: the cursor is trustworthy
		// again from here.
		r.desynced = false
		r.stats.Resyncs++
		if o != nil {
			emit(&r.evs, o.EdgeBase(), label, next, obs.EvResync)
		}
	}
	r.cur = next
	if o != nil {
		r.ingest(o)
		o.AdvanceEdges(1)
	}
	return next
}

// plausibleSuccessor reports whether control leaving tbb's block could
// possibly arrive at label: the branch target, the fall-through address, or
// anywhere at all after an indirect terminator. Labels outside this set are
// proof the automaton's block no longer matches the executing program.
func plausibleSuccessor(tbb *trace.TBB, label uint64) bool {
	b := tbb.Block
	t := b.Term
	if t.IsIndirect() {
		return true
	}
	if t.IsBranch() && label == t.Target {
		return true
	}
	ft, ok := b.FallThrough()
	return ok && label == ft
}

// AccountOnly records instrs executed without advancing the automaton;
// the online recorder uses it while a trace is being created (Algorithm 2
// performs no ChangeState in the Creating state).
func (r *Replayer) AccountOnly(instrs uint64) {
	r.account(r.cur, instrs)
}

// ForceState repositions the cursor (used by the recorder after trace
// creation finishes and the automaton has changed underneath the cursor).
func (r *Replayer) ForceState(s StateID) { r.cur = s }

// ForceDesync overrides the degradation flag alongside ForceState: the
// pipeline drain repositions the cursor to a reconciled (state, desync)
// pair before handing a chunk suffix to the sequential recorder.
func (r *Replayer) ForceDesync(d bool) { r.desynced = d }

func (r *Replayer) account(state StateID, instrs uint64) {
	r.stats.AccountTail(state, instrs)
}

// AccountTail folds instrs executed without an automaton transition into s,
// attributed to state cur — what AccountOnly does through a replayer, made
// available to callers that hold only a Stats (e.g. after a pipeline
// Barrier, to account a run's unreported tail from pin's Fini callback).
func (s *Stats) AccountTail(cur StateID, instrs uint64) {
	if instrs == 0 {
		// The initial pseudo-edge carries no finished block.
		return
	}
	s.Blocks++
	s.Instrs += instrs
	if cur != NTE {
		s.TraceBlocks++
		s.TraceInstrs += instrs
	}
}

// resolve handles a transition that leaves state from on label: the target
// is either another trace's entry or cold code. The state's local cache is
// consulted first when enabled; the global container otherwise. Negative
// results (exits to cold code) are cached too — that is what lets the
// paper's "No Global / Local" configuration beat "Global / No Local" on
// average: once warm, trace-side transitions never search the global
// container at all, leaving only the (cache-less) NTE state's lookups.
// AddEntry invalidates the caches (by generation), so a negative entry can
// never mask a trace created later by the online recorder.
func (r *Replayer) resolve(from StateID, label uint64) StateID {
	if r.cfg.Local {
		c := r.cacheFor(from)
		if t, ok := c.get(label); ok {
			r.stats.LocalHits++
			return t
		}
		r.stats.LocalMisses++
		t := r.lookupGlobalFrom(from, label)
		c.put(label, t)
		return t
	}
	return r.lookupGlobalFrom(from, label)
}

func (r *Replayer) lookupGlobal(label uint64) StateID {
	r.stats.GlobalLookups++
	t, ok := r.index.Lookup(label)
	if !ok {
		return NTE
	}
	r.stats.GlobalHits++
	return t
}

// cacheFor lazily allocates the local cache of a state and brings it up to
// the current generation, flushing it if AddEntry ran since its last use.
// The cache slice grows with the automaton so the online recorder can keep
// using the same replayer as states are added.
func (r *Replayer) cacheFor(s StateID) *localCache {
	if int(s) >= len(r.caches) {
		grown := make([]*localCache, r.a.NumStates())
		copy(grown, r.caches)
		r.caches = grown
	}
	c := r.caches[s]
	if c == nil {
		c = newLocalCache(r.cfg.LocalSize)
		c.gen = r.gen
		r.caches[s] = c
	} else if c.gen != r.gen {
		c.flush()
		c.gen = r.gen
	}
	return c
}
