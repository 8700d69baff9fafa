// Package pipeline decouples online trace capture from TEA processing — the
// PANDA il_trace architecture (SNIPPETS.md Snippet 3) adapted to this
// repo's automaton machinery, DESIGN.md §14.
//
// The execution side (a cpu/pin/dbt producer) appends edges to a chunk and,
// when the chunk fills, stamps it with an atomically-incremented sequence
// number and publishes it to a bounded lock-free ring. It never waits for
// TEA work: the only thing that can slow a producer down is the high
// watermark — every chunk buffer in flight — which is surfaced as a counter
// (Metrics.BackpressureWaits), never a per-edge lock. Scan workers pop
// chunks in any order and run the speculative segment scans from
// internal/core against an immutable compiled snapshot: the one record
// kernel (SpecRecord, or SpecRecordObs with events) or the one replay
// kernel (SpecReplay, or SpecReplayObs with events). A single drain
// consumes scan results in sequence order and merges them with core's
// junction reconciliation (MergeRecord, Merge), so the final
// automaton, Stats and desync/resync accounting are byte-identical to a
// sequential pass. Observability folds per chunk into per-shard registry
// cells and the merged event stream only at sequence boundaries — workers
// never touch the registry.
package pipeline

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/obs"
)

// Config sizes a pipeline.
type Config struct {
	// Workers is the number of speculative scan workers; <= 0 selects
	// GOMAXPROCS. (The drain is one more goroutine, and the producer is the
	// caller's.)
	Workers int
	// ChunkEdges is the number of edges per published chunk; <= 0 selects
	// 4096. Larger chunks amortize sequencing overhead, smaller ones cut the
	// capture→result latency.
	ChunkEdges int
	// Depth is the number of chunk buffers in flight (the ring capacity and
	// the backpressure high watermark); <= 0 selects 32, and the value is
	// rounded up to a power of two, minimum 4.
	Depth int
	// Obs attaches the observability context; nil runs dark.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ChunkEdges <= 0 {
		c.ChunkEdges = 4096
	}
	if c.Depth <= 0 {
		c.Depth = 32
	}
	d := 4
	for d < c.Depth {
		d <<= 1
	}
	c.Depth = d
	return c
}

// Metrics is a snapshot of the pipeline's self-telemetry. The counters live
// in pipe-owned atomics — never in registry cells — because the registry's
// folded contents are part of the byte-identical-to-sequential contract. A
// scrape-time collector (registerObs) delta-folds these atomics into
// tea_pipeline_* registry series, so unified dashboards still see them;
// identity tests filter that prefix.
type Metrics struct {
	// Published / Drained count sequenced chunks in and out.
	Published uint64
	Drained   uint64
	// BackpressureWaits counts the times the producer found every chunk
	// buffer in flight (the high watermark) and had to wait for the drain
	// to recycle one. The producer never blocks on a lock; it spins and
	// then parks here, and this counter is the evidence.
	BackpressureWaits uint64
	// QuietChunks / SeqChunks / Handoffs split record-mode drains: chunks
	// accepted wholesale from the speculative scan, chunks replayed through
	// the sequential recorder, and chunks split at a hot-candidate handoff.
	QuietChunks uint64
	SeqChunks   uint64
	Handoffs    uint64
	// Recompiles counts snapshot recompilations (record mode).
	Recompiles uint64
}

// chunk is one sequenced batch: the payload (replay edges, or record-mode
// cfg edges + instruction counts), the sequence stamp, the global edge
// index of its first edge, and the speculative scan result. Chunks recycle
// through the free ring; every slice reuses its capacity.
//
// The payload slices are either the chunk's own buffers (ownS/ownE/ownI,
// filled by the per-edge feed) or zero-copy views into a caller's batch
// (bulk Feed): full chunks of a batch are published as views without
// copying, which is why bulk feeding requires the caller's slice to stay
// unmodified until the next Barrier. A view never survives as the
// producer's current chunk — it is published immediately — so the per-edge
// feed always appends into owned storage.
type chunk struct {
	seq  uint64
	base uint64

	edges []core.Edge // replay payload
	ownS  []core.Edge

	redges []cfg.Edge // record payload
	rinstr []uint64
	ownE   []cfg.Edge
	ownI   []uint64
	snap   *recSnap // snapshot the scan ran against; nil = not scanned

	res core.SpecResult
}

// recSnap is a frozen compiled image of the recorder's automaton at a known
// version; producers read it with one atomic load per chunk.
type recSnap struct {
	c   *core.Compiled
	ver uint64
}

// pipe is the plumbing shared by ReplayPipeline and RecordPipeline:
// sequencing, the two rings, the reorder window, the worker pool and the
// drain loop.
type pipe struct {
	cfg  Config
	o    *obs.Obs
	work *ring
	free *ring
	// resv is the sequence-indexed reorder window: worker w finishing chunk
	// seq s stores it at resv[s % Depth] and marks the slot ready with s+1.
	// In-order draining plus the pigeonhole bound on in-flight chunks
	// guarantee the slot is free when the worker writes it (see drainLoop).
	resv []resSlot

	pub     atomic.Uint64 // next sequence number == chunks published
	drained atomic.Uint64 // chunks merged by the drain
	closed  atomic.Bool

	// Where each side parks when it runs out of work: the workers until a
	// publish, the drain until a worker fills its next reorder slot, the
	// producer until the drain recycles a buffer and advances drained.
	workWait, drainWait, prodWait parker

	bpWaits    atomic.Uint64
	quietChunk atomic.Uint64
	seqChunk   atomic.Uint64
	handoffs   atomic.Uint64
	recompiles atomic.Uint64

	scan    func(*chunk) // worker-side speculative scan
	drainFn func(*chunk) // drain-side in-order merge

	// workerChunks[w] counts chunks scanned by worker w; padded so two
	// workers finishing chunks never share a cache line.
	workerChunks []padCount

	wg sync.WaitGroup

	// Producer-side state (owned by the feeding goroutine).
	cur   *chunk
	cum   uint64 // edges published so far
	obase uint64
}

type resSlot struct {
	ready atomic.Uint64 // seq+1 once ch is valid
	ch    *chunk
	_     [48]byte
}

// padCount is a cache-line padded per-worker counter.
type padCount struct {
	n atomic.Uint64
	_ [56]byte
}

// start allocates the rings and chunk buffers and spawns workers + drain.
func (p *pipe) start(record bool) {
	p.work = newRing(p.cfg.Depth)
	p.free = newRing(p.cfg.Depth)
	p.resv = make([]resSlot, p.cfg.Depth)
	for i := 0; i < p.cfg.Depth; i++ {
		c := &chunk{}
		if record {
			c.ownE = make([]cfg.Edge, 0, p.cfg.ChunkEdges)
			c.ownI = make([]uint64, 0, p.cfg.ChunkEdges)
			c.redges, c.rinstr = c.ownE, c.ownI
		} else {
			c.ownS = make([]core.Edge, 0, p.cfg.ChunkEdges)
			c.edges = c.ownS
		}
		p.free.push(c)
	}
	if p.o != nil {
		p.obase = p.o.EdgeBase()
	}
	p.workWait.init(p.cfg.Workers)
	p.drainWait.init(1)
	p.prodWait.init(1)
	p.workerChunks = make([]padCount, p.cfg.Workers)
	for w := 0; w < p.cfg.Workers; w++ {
		p.wg.Add(1)
		go p.workerLoop(w)
	}
	p.wg.Add(1)
	go p.drainLoop()
}

func (p *pipe) workerLoop(w int) {
	defer p.wg.Done()
	for {
		n := 0
		c, ok := p.work.pop()
		for !ok && !p.closed.Load() {
			n = p.workWait.pause(n)
			c, ok = p.work.pop()
		}
		p.workWait.done(n)
		if !ok {
			// Closed and empty: Close quiesces before closing, so no
			// publish can race this observation.
			return
		}
		p.scan(c)
		p.workerChunks[w].n.Add(1)
		s := &p.resv[c.seq&uint64(p.cfg.Depth-1)]
		s.ch = c
		s.ready.Store(c.seq + 1)
		p.drainWait.wake()
	}
}

func (p *pipe) drainLoop() {
	defer p.wg.Done()
	next := uint64(0)
	for {
		s := &p.resv[next&uint64(p.cfg.Depth-1)]
		n := 0
		for s.ready.Load() != next+1 {
			if p.closed.Load() && p.pub.Load() == next {
				p.drainWait.done(n)
				return // closed, and everything published is drained
			}
			n = p.drainWait.pause(n)
		}
		p.drainWait.done(n)
		c := s.ch
		p.drainFn(c)
		// Recycle before advancing drained: the producer observing the
		// drained count (Barrier) must also observe the merge results, and
		// the free-ring push is what hands the buffer back. One wake covers
		// both producer waits, for a free buffer and for the drained count.
		p.free.push(c)
		next++
		p.drained.Store(next)
		p.prodWait.wake()
	}
}

// getChunk acquires a recycled chunk buffer, parking at the high watermark
// until the drain recycles one. This is the only place a producer waits on
// the pipeline's progress, and each such wait is counted.
func (p *pipe) getChunk() *chunk {
	c, ok := p.free.pop()
	if ok {
		return c
	}
	p.bpWaits.Add(1)
	n := 0
	for !ok {
		n = p.prodWait.pause(n)
		c, ok = p.free.pop()
	}
	p.prodWait.done(n)
	return c
}

// publish stamps the producer's current chunk with the next sequence number
// and hands it to the workers. n is the chunk's edge count.
func (p *pipe) publish(c *chunk, n int) {
	c.seq = p.pub.Add(1) - 1
	c.base = p.obase + p.cum
	p.cum += uint64(n)
	p.work.push(c) // cannot fail: at most Depth chunks exist
	p.workWait.wake()
	p.cur = nil
}

// quiesce waits until every published chunk has been drained.
func (p *pipe) quiesce() {
	target := p.pub.Load()
	n := 0
	for p.drained.Load() != target {
		n = p.prodWait.pause(n)
	}
	p.prodWait.done(n)
}

// shutdown quiesces, then stops the workers and the drain: with closed set,
// every parked side is woken to see it.
func (p *pipe) shutdown() {
	p.quiesce()
	p.closed.Store(true)
	p.workWait.wakeAll()
	p.drainWait.wakeAll()
	p.wg.Wait()
}

// registerObs installs a scrape-time collector that delta-folds the pipe's
// self-telemetry atomics into tea_pipeline_* registry series, including a
// per-worker chunk counter labeled with the worker index. The fold happens
// only when the registry is rendered — never on the feed or drain paths —
// so the pipeline hot paths stay allocation- and registry-free, and the
// per-pipeline delta state means several pipelines sharing one registry sum
// correctly.
func (p *pipe) registerObs() {
	if p.o == nil {
		return
	}
	reg := p.o.Reg
	published := reg.Counter("tea_pipeline_published_chunks_total", "Sequenced chunks handed to the scan workers.")
	drained := reg.Counter("tea_pipeline_drained_chunks_total", "Sequenced chunks merged by the drain.")
	waits := reg.Counter("tea_pipeline_backpressure_waits_total", "Producer waits for a recycled chunk buffer at the high watermark (every buffer in flight).")
	quiet := reg.Counter("tea_pipeline_quiet_chunks_total", "Record-mode chunks accepted wholesale from the speculative scan.")
	seqc := reg.Counter("tea_pipeline_seq_chunks_total", "Record-mode chunks replayed through the sequential recorder.")
	handoffs := reg.Counter("tea_pipeline_handoffs_total", "Record-mode chunks split at a hot-candidate handoff.")
	recompiles := reg.Counter("tea_pipeline_recompiles_total", "Record-mode snapshot recompilations.")
	workers := reg.CounterVec("tea_pipeline_worker_chunks_total", "Chunks scanned, by worker index.", "worker")
	labels := make([]string, len(p.workerChunks))
	for w := range labels {
		labels[w] = strconv.Itoa(w)
	}
	var mu sync.Mutex
	var last Metrics
	lastW := make([]uint64, len(p.workerChunks))
	reg.AddCollector(func() {
		mu.Lock()
		defer mu.Unlock()
		m := p.Metrics()
		published.Add(m.Published - last.Published)
		drained.Add(m.Drained - last.Drained)
		waits.Add(m.BackpressureWaits - last.BackpressureWaits)
		quiet.Add(m.QuietChunks - last.QuietChunks)
		seqc.Add(m.SeqChunks - last.SeqChunks)
		handoffs.Add(m.Handoffs - last.Handoffs)
		recompiles.Add(m.Recompiles - last.Recompiles)
		last = m
		for w := range p.workerChunks {
			v := p.workerChunks[w].n.Load()
			workers.With(labels[w]).Add(v - lastW[w])
			lastW[w] = v
		}
	})
}

// Metrics returns a snapshot of the pipeline's self-telemetry.
func (p *pipe) Metrics() Metrics {
	return Metrics{
		Published:         p.pub.Load(),
		Drained:           p.drained.Load(),
		BackpressureWaits: p.bpWaits.Load(),
		QuietChunks:       p.quietChunk.Load(),
		SeqChunks:         p.seqChunk.Load(),
		Handoffs:          p.handoffs.Load(),
		Recompiles:        p.recompiles.Load(),
	}
}
