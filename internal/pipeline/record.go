package pipeline

import (
	"sync/atomic"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/trace"
)

// RecordPipeline decouples online trace recording from capture. The
// recorder, its automaton and the selection strategy live on the drain;
// scan workers run SpecRecord against a frozen compiled snapshot of the
// automaton, reducing each chunk to (Stats delta, trajectory, head
// candidates, and with obs attached its events and container searches).
// The drain then merges chunks in sequence order:
//
//   - A *quiet* chunk — a current snapshot exists (automaton unchanged
//     since it was compiled; a chunk a worker scanned against an older one
//     is rescanned on the drain), recorder in the Executing state, no
//     trace being recorded — is accepted by replaying only the strategy's
//     candidate policy (QuietObserver.CountCandidate per cold candidate)
//     over the reconciled candidate list. The strategy keeps no cursor to
//     re-align: it reads trace exits from the recorder's transition, and
//     the scan derives candidates from the same transitions. The
//     recorder's per-edge machinery is bypassed entirely; this is the
//     scaling path once the trace set saturates.
//
//   - The first *hot* candidate in a chunk triggers a handoff: the true
//     prefix before it is accounted by RecReplay from the drain's true
//     entry state, and the suffix goes through Recorder.ObserveBatch — the
//     exact sequential machinery — so trace creation, automaton sync and
//     entry insertion happen precisely as a sequential recorder would.
//
//   - Anything else (no current snapshot, mid-recording, strategy without
//     QuietObserver) falls back to ObserveBatch for the whole chunk.
//
// Because the quiet path's candidate decisions are reconciled to the true
// trajectory (core.Reconciler.MergeRecord) and every mutation runs on the
// sequential machinery, the final automaton, Stats and desync/resync
// accounting are byte-identical to per-edge Recorder.Observe over the same
// stream. With obs attached so are the event ring and the registry: a
// quiet chunk or handoff prefix ingests its reconciled events at the live
// edge clock, with every global-container search re-issued against the
// recorder's own container for the probe depths
// (core.Replayer.ReplayProbeEvents).
//
// The recorder is built cache-less (core.ConfigGlobalNoLocal): memoryless
// transitions are what make speculative chunk scans reconcilable, exactly
// as in ReplayPipeline.
type RecordPipeline struct {
	pipe
	rec   *core.Recorder
	strat trace.Strategy
	q     trace.QuietObserver // nil → every chunk is sequential
	snap  atomic.Pointer[recSnap]

	// Drain-owned state.
	rc       core.Reconciler
	pre      core.SpecResult // a handoff's true prefix
	fcur     core.StateID
	fdes     bool
	repStale bool // the recorder's cursor lags fcur/fdes after quiet chunks
	quiet    core.Stats
	lastVer  uint64
	stable   int
}

// snapHysteresis is how many drained chunks the automaton must stay
// structurally unchanged before the drain recompiles a snapshot — fresh
// mutations come in bursts (trace creation), and compiling per mutation
// would waste the win.
const snapHysteresis = 3

// NewRecord builds and starts a record pipeline around a fresh recorder on
// strat. The strategy is driven only from the drain goroutine.
func NewRecord(strat trace.Strategy, cfg Config) *RecordPipeline {
	p := &RecordPipeline{strat: strat}
	p.pipe.cfg = cfg.withDefaults()
	p.o = p.pipe.cfg.Obs
	p.rec = core.NewRecorder(strat, core.ConfigGlobalNoLocal)
	if p.o != nil {
		p.rec.SetObs(p.o)
	}
	p.q, _ = strat.(trace.QuietObserver)
	p.fcur = core.NTE
	p.lastVer = p.rec.Automaton().Version()
	p.scan = p.scanChunk
	p.drainFn = p.drainChunk
	p.start(true)
	p.registerObs()
	return p
}

// Recorder exposes the underlying recorder (automaton, stats, snapshot).
// Touch it only at a barrier.
func (p *RecordPipeline) Recorder() *core.Recorder { return p.rec }

// scanChunk scans against the snapshot current when the worker picks the
// chunk up — the freshest one a worker can see, since the drain replaces
// snapshots while chunks wait in the ring.
func (p *RecordPipeline) scanChunk(c *chunk) {
	c.snap = p.snap.Load()
	if c.snap != nil {
		p.specRecord(c.snap.c, c)
	}
}

// specRecord scans c against s, collecting its events and container
// searches when obs is attached.
func (p *RecordPipeline) specRecord(s *core.Compiled, c *chunk) {
	if p.o != nil {
		s.SpecRecordObs(c.redges, c.rinstr, &c.res)
	} else {
		s.SpecRecord(c.redges, c.rinstr, &c.res)
	}
}

// resyncSequential re-aims the recorder's cursor at the drain's reconciled
// position before sequential machinery runs. Only needed after quiet chunks
// left it stale.
func (p *RecordPipeline) resyncSequential(cur core.StateID, des bool) {
	rep := p.rec.Replayer()
	rep.ForceState(cur)
	rep.ForceDesync(des)
	p.repStale = false
}

// noteVersion maintains the snapshot hysteresis after each drained chunk:
// a structural mutation invalidates the published snapshot immediately;
// snapHysteresis unchanged chunks later, a fresh one is compiled.
func (p *RecordPipeline) noteVersion(a *core.Automaton) {
	v := a.Version()
	if v != p.lastVer {
		p.lastVer = v
		p.stable = 0
		if p.snap.Load() != nil {
			p.snap.Store(nil)
		}
		return
	}
	if p.q == nil {
		return
	}
	p.stable++
	if s := p.snap.Load(); (s == nil || s.ver != v) && p.stable >= snapHysteresis {
		p.snap.Store(&recSnap{c: core.Compile(a, core.ConfigGlobalNoLocal), ver: v})
		p.recompiles.Add(1)
	}
}

func (p *RecordPipeline) drainChunk(c *chunk) {
	a := p.rec.Automaton()
	s := p.snap.Load()

	if s != nil && p.q != nil && s.ver == a.Version() &&
		p.rec.State() == core.RecExecuting && !p.strat.Recording() {
		// The current snapshot is the live transition function. A worker
		// that ran ahead of the drain scanned against an older snapshot (or
		// none); rescan here, so whether a chunk takes the quiet path
		// depends only on the drained history, not on how far the producer
		// ran ahead. The rescan is still far cheaper than the sequential
		// recorder it replaces.
		if c.snap != s {
			p.specRecord(s.c, c)
		}
		// Reconcile the scan to the true entry state and replay the
		// candidate policy.
		m := p.rc.MergeRecord(s.c, c.redges, c.rinstr, p.fcur, p.fdes, &c.res)
		hot := -1
		for i := range m.Cands {
			if p.q.HotCandidate(m.Cands[i].Head) {
				hot = i
				break
			}
			p.q.CountCandidate(m.Cands[i].Head)
		}
		rep := p.rec.Replayer()
		if hot < 0 {
			// Quiet accept: counters counted, stats folded, no per-edge work.
			p.quiet.Add(&m.Delta)
			if p.o != nil {
				rep.ReplayProbeEvents(&m, c.res.Ticks)
				core.FoldReplayObs(p.o, int(c.seq)%obs.NumShards, &m.Delta)
			}
			p.fcur, p.fdes = m.ExitCur, m.ExitDes
			p.repStale = true
			p.quietChunk.Add(1)
			p.noteVersion(a)
			return
		}
		// Handoff: account the true prefix before the hot candidate from the
		// scan side, then run the suffix — beginning with the triggering edge
		// — through the sequential recorder, which re-evaluates the trigger
		// itself (decide-before-mutate).
		k := int(m.Cands[hot].Idx)
		pcur, pdes := s.c.RecReplay(c.redges[:k], c.rinstr[:k], p.fcur, p.fdes, &p.pre)
		p.quiet.Add(&p.pre.Stats)
		if p.o != nil {
			rep.ReplayProbeEvents(&m, p.pre.Ticks)
			core.FoldReplayObs(p.o, int(c.seq)%obs.NumShards, &p.pre.Stats)
		}
		p.resyncSequential(pcur, pdes)
		p.rec.ObserveBatch(c.redges[k:], c.rinstr[k:])
		p.fcur, p.fdes = rep.Cur(), rep.Desynced()
		p.handoffs.Add(1)
		p.noteVersion(a)
		return
	}

	// Sequential fallback: the exact recorder machinery over the whole chunk.
	if p.repStale {
		p.resyncSequential(p.fcur, p.fdes)
	}
	p.rec.ObserveBatch(c.redges, c.rinstr)
	rep := p.rec.Replayer()
	p.fcur, p.fdes = rep.Cur(), rep.Desynced()
	p.seqChunk.Add(1)
	p.noteVersion(a)
}

// FeedEdge appends one observed edge (with the instructions retired since
// the previous edge) to the current chunk, publishing when full. Final
// nil-To edges may be fed mid-stream; they account without transitioning,
// exactly as Recorder.Observe treats them.
func (p *RecordPipeline) FeedEdge(e cfg.Edge, instrs uint64) {
	c := p.cur
	if c == nil {
		c = p.getChunk()
		c.redges = c.ownE[:0]
		c.rinstr = c.ownI[:0]
		p.cur = c
	}
	c.redges = append(c.redges, e)
	c.rinstr = append(c.rinstr, instrs)
	if len(c.redges) >= p.pipe.cfg.ChunkEdges {
		p.publish(c, len(c.redges))
	}
}

// Feed appends a batch of edges with their per-edge instruction deltas,
// publishing full chunk-aligned runs as zero-copy views into the caller's
// slices — so both must stay unmodified until the next Barrier. Only a
// partially filled head or tail chunk is copied. Prefer it over FeedEdge
// when edges arrive batched.
//
//tea:hotpath
func (p *RecordPipeline) Feed(edges []cfg.Edge, instrs []uint64) {
	ce := p.pipe.cfg.ChunkEdges
	// Finish a partially filled per-edge chunk by copying into it.
	if c := p.cur; c != nil && len(edges) > 0 {
		room := ce - len(c.redges)
		if room > len(edges) {
			room = len(edges)
		}
		c.redges = append(c.redges, edges[:room]...)
		c.rinstr = append(c.rinstr, instrs[:room]...)
		edges, instrs = edges[room:], instrs[room:]
		if len(c.redges) >= ce {
			p.publish(c, len(c.redges))
		}
	}
	// Publish whole chunks as views, no copy.
	for len(edges) >= ce {
		c := p.getChunk()
		c.redges = edges[:ce:ce]
		c.rinstr = instrs[:ce:ce]
		p.publish(c, ce)
		edges, instrs = edges[ce:], instrs[ce:]
	}
	// The tail becomes the producer's owned current chunk.
	if len(edges) > 0 {
		c := p.getChunk()
		c.redges = append(c.ownE[:0], edges...)
		c.rinstr = append(c.ownI[:0], instrs...)
		p.cur = c
	}
}

// Flush publishes the producer's partial chunk, if any.
func (p *RecordPipeline) Flush() {
	if c := p.cur; c != nil && len(c.redges) > 0 {
		p.publish(c, len(c.redges))
	}
}

// AccountTail folds a trailing instruction count (the unreported tail from
// a producer's Fini callback) into the recorder at the true reconciled
// cursor, exactly as a sequential recorder's AccountOnly would. It drains
// everything fed so far first, so call it once, before the final Barrier.
func (p *RecordPipeline) AccountTail(instrs uint64) {
	p.Flush()
	p.quiesce()
	if p.repStale {
		p.resyncSequential(p.fcur, p.fdes)
	}
	p.rec.Replayer().AccountOnly(instrs)
}

// Barrier flushes, waits for every chunk to drain, folds outstanding obs
// deltas, and returns the combined Stats (sequentially processed + quiet
// chunks) — byte-identical to a sequential recorder's Stats over the same
// stream.
func (p *RecordPipeline) Barrier() core.Stats {
	p.Flush()
	p.quiesce()
	rep := p.rec.Replayer()
	if p.o != nil {
		rep.FlushObs()
	}
	st := *rep.Stats()
	st.Add(&p.quiet)
	return st
}

// Close quiesces and stops the workers and drain. The recorder remains
// readable.
func (p *RecordPipeline) Close() {
	p.Flush()
	p.shutdown()
}
