package pipeline

import (
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/obs"
)

// ReplayPipeline replays a live edge stream against a compiled automaton
// with capture decoupled from processing: the producer feeds edges and
// never waits for automaton work, scan workers replay chunks speculatively
// from (NTE, in-sync), and the drain reconciles junctions in sequence
// order. Stats, final state, desync/resync accounting, folded registry
// counters and the ingested event stream are byte-identical to
// core.SequentialReplay on the same stream.
//
// This is the one executor that drives the speculative scans and junction
// reconciliation of internal/core across goroutines. The replay semantics
// are memoryless (local caches excluded); the Compiled image is treated as
// immutable for the pipeline's lifetime. Feeding is single-producer: one goroutine calls Feed/FeedEdge/
// Flush/Barrier. Everything downstream is concurrent.
type ReplayPipeline struct {
	pipe
	c *core.Compiled

	// Drain-owned merge state; the producer may read it only after a
	// Barrier (the drained-counter load orders these writes).
	rc     core.Reconciler
	merged []obs.Event
	stats  core.Stats
	fcur   core.StateID
	fdes   bool
}

// NewReplay builds and starts a replay pipeline over c.
func NewReplay(c *core.Compiled, cfg Config) *ReplayPipeline {
	p := &ReplayPipeline{c: c}
	p.pipe.cfg = cfg.withDefaults()
	p.o = p.pipe.cfg.Obs
	p.fcur = core.NTE
	p.scan = p.scanChunk
	p.drainFn = p.drainChunk
	p.start(false)
	p.registerObs()
	return p
}

func (p *ReplayPipeline) scanChunk(c *chunk) {
	if p.o != nil {
		p.c.SpecReplayObs(c.edges, c.base, &c.res)
	} else {
		p.c.SpecReplay(c.edges, &c.res)
	}
}

func (p *ReplayPipeline) drainChunk(c *chunk) {
	var merged *[]obs.Event
	if p.o != nil {
		p.merged = p.merged[:0]
		merged = &p.merged
	}
	d, cur, des := p.rc.Merge(p.c, c.edges, c.base, p.fcur, p.fdes, &c.res, merged)
	p.stats.Add(&d)
	p.fcur, p.fdes = cur, des
	if p.o != nil {
		core.FoldReplayObs(p.o, int(c.seq)%obs.NumShards, &d)
		p.o.AdvanceEdges(uint64(len(c.edges)))
		p.o.IngestReplay(p.merged)
	}
}

// FeedEdge appends one edge to the producer's current chunk, publishing the
// chunk when it fills.
func (p *ReplayPipeline) FeedEdge(label, instrs uint64) {
	c := p.cur
	if c == nil {
		c = p.getChunk()
		c.edges = c.ownS[:0]
		p.cur = c
	}
	c.edges = append(c.edges, core.Edge{Label: label, Instrs: instrs})
	if len(c.edges) >= p.pipe.cfg.ChunkEdges {
		p.publish(c, len(c.edges))
	}
}

// Feed appends a batch of edges, publishing full chunks as it goes. Full
// chunk-aligned runs are published as zero-copy views into edges, so the
// caller must keep the slice unmodified until the next Barrier; only a
// partially filled head or tail chunk is copied.
func (p *ReplayPipeline) Feed(edges []core.Edge) {
	ce := p.pipe.cfg.ChunkEdges
	// Finish a partially filled per-edge chunk by copying into it.
	if c := p.cur; c != nil && len(edges) > 0 {
		room := ce - len(c.edges)
		if room > len(edges) {
			room = len(edges)
		}
		c.edges = append(c.edges, edges[:room]...)
		edges = edges[room:]
		if len(c.edges) >= ce {
			p.publish(c, len(c.edges))
		}
	}
	// Publish whole chunks as views, no copy.
	for len(edges) >= ce {
		c := p.getChunk()
		c.edges = edges[:ce:ce]
		p.publish(c, ce)
		edges = edges[ce:]
	}
	// The tail becomes the producer's owned current chunk.
	if len(edges) > 0 {
		c := p.getChunk()
		c.edges = append(c.ownS[:0], edges...)
		p.cur = c
	}
}

// Flush publishes the producer's partial chunk, if any.
func (p *ReplayPipeline) Flush() {
	if c := p.cur; c != nil && len(c.edges) > 0 {
		p.publish(c, len(c.edges))
	}
}

// Barrier flushes, waits until every published chunk has been merged, and
// returns the accumulated Stats and the cursor — the sequential answer for
// everything fed so far. The pipeline stays live; feeding may continue.
func (p *ReplayPipeline) Barrier() (core.Stats, core.StateID) {
	p.Flush()
	p.quiesce()
	return p.stats, p.fcur
}

// Desynced reports whether the cursor is currently desynchronized. Valid
// only at a barrier.
func (p *ReplayPipeline) Desynced() bool { return p.fdes }

// Reset clears the accumulated totals and cursor for a fresh pass over the
// same compiled image, reusing every buffer. Must be called at a barrier
// (after Barrier, before further feeding).
func (p *ReplayPipeline) Reset() {
	p.stats = core.Stats{}
	p.fcur, p.fdes = core.NTE, false
	if p.o != nil {
		p.obase = p.o.EdgeBase()
	}
	p.cum = 0
}

// Close quiesces and stops the workers and drain. The pipeline must not be
// used afterwards.
func (p *ReplayPipeline) Close() {
	p.Flush()
	p.shutdown()
}
