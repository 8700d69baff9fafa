package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/pipeline"
	"github.com/lsc-tea/tea/internal/serve"
	"github.com/lsc-tea/tea/internal/verify"
)

// Sizes of the traced layer phase. They fix the work, not the time, so the
// phase's exact counts repeat for a seed.
const (
	layerSessions  = 96 // operations of the client's schedule the serve re-drive runs
	layerReps      = 7  // repetitions of each timed layer; metrics are medians
	replayPasses   = 40
	recordPasses   = 5 // at recordWorkers, one worker
	recordW2Passes = 3 // at two workers, for the scaling reading
)

// layerPhase measures every layer on fixed inputs. It is the same whichever
// workload the traced run times, so every traced run reports every
// per-layer metric.
type layerPhase struct {
	w      *world
	j      *jobs
	log    *spanLog
	res    *result
	m      metrics
	printf func(format string, args ...any)
}

// measureLayers times each layer and returns the per-layer metrics and the
// operations the phase checked.
func measureLayers(ctx context.Context, w *world, j *jobs, log *spanLog, printf func(string, ...any)) (metrics, *result, error) {
	p := &layerPhase{w: w, j: j, log: log, res: &result{}, printf: printf}
	for _, f := range []func(context.Context) error{p.serve, p.replay, p.record} {
		if err := f(ctx); err != nil {
			return nil, nil, err
		}
	}
	return p.m, p.res, nil
}

// repeat runs fn layerReps times and returns the reading over its results.
func repeat(fn func() (float64, error)) (reading, error) {
	xs := make([]float64, 0, layerReps)
	for i := 0; i < layerReps; i++ {
		x, err := fn()
		if err != nil {
			return reading{}, err
		}
		xs = append(xs, x)
	}
	return readingOf(xs), nil
}

// add records a layer reading as a metric and prints its spread.
func (p *layerPhase) add(name string, r reading, unit string) {
	p.m.add(name, r.median, unit)
	p.printf("spread %-38s %s %s", name, r, unit)
}

// wireBatch is one Edges frame a session sent, re-driven alone through each
// wire function.
type wireBatch struct {
	payload []byte // frame payload as the client wrote it
	frame   []byte // the same payload framed: length, crc, payload
	edges   []core.Edge
	clock   int64
}

// serve re-drives the first layerSessions operations of the client's
// schedule through real sessions layerReps times, capturing the batches of
// the first round, then times each wire function, the kernel and the
// publish-path functions alone on those inputs. What the session costs
// beyond them is the residue.
func (p *layerPhase) serve(ctx context.Context) error {
	sj := p.j.serve
	phase := p.log.id()
	t0 := time.Now()
	var sess []float64
	var caps []capture
	for r := 0; r < layerReps; r++ {
		start := time.Now()
		res, c, err := sj.run(ctx, serveRun{from: start, until: start.Add(time.Hour), maxOps: layerSessions, capture: r == 0, log: p.log})
		if err != nil {
			return err
		}
		p.res.merge(res)
		var busy time.Duration
		for _, op := range res.ops {
			if !op.publish {
				busy += op.dur
			}
		}
		sess = append(sess, perUnit(busy, int(res.edges)))
		if r == 0 {
			caps = c
		}
	}
	session := readingOf(sess)

	batches := make([][]wireBatch, len(caps))
	compiled := make([]*core.Compiled, len(caps))
	edges, frames, wire := 0, 0, 0
	for i, c := range caps {
		for _, payload := range c.frames {
			typ, body, err := serve.ParseFrame(payload)
			if err != nil || typ != serve.FrameEdges {
				return fmt.Errorf("captured frame is not an Edges frame (%v)", err)
			}
			es, clock, err := serve.ParseEdges(body, nil)
			if err != nil {
				return fmt.Errorf("captured Edges frame: %w", err)
			}
			var framed bytes.Buffer
			if err := serve.WriteFrame(&framed, payload); err != nil {
				return err
			}
			batches[i] = append(batches[i], wireBatch{payload: payload, frame: framed.Bytes(), edges: es, clock: clock})
		}
		img, serr := sj.srv.Store().Peek(c.win.img.name)
		if serr != nil {
			return serr
		}
		compiled[i] = img.Compiled
		edges += c.win.n
		frames += len(c.frames)
		wire += c.wire
	}
	if edges == 0 || frames == 0 {
		return errors.New("the serve re-drive captured no batch")
	}
	n := float64(edges)
	// each times f on every captured batch, one span per call.
	each := func(name string, f func(b *wireBatch)) time.Duration {
		var d time.Duration
		for i := range batches {
			for k := range batches[i] {
				b := &batches[i][k]
				d += p.log.timed(name, phase, func() { f(b) })
			}
		}
		return d
	}

	encode, err := repeat(func() (float64, error) {
		var buf []byte
		d := each("serve.AppendEdges", func(b *wireBatch) { buf = serve.AppendEdges(buf[:0], b.edges, b.clock) })
		return float64(d) / n, nil
	})
	if err != nil {
		return err
	}
	write, err := repeat(func() (float64, error) {
		var out bytes.Buffer
		var ferr error
		d := each("serve.WriteFrame", func(b *wireBatch) {
			out.Reset()
			if err := serve.WriteFrame(&out, b.payload); err != nil {
				ferr = err
			}
		})
		return float64(d) / n, ferr
	})
	if err != nil {
		return err
	}
	read, err := repeat(func() (float64, error) {
		var rd bytes.Reader
		var buf []byte
		var ferr error
		d := each("serve.ReadFrame+ParseFrame", func(b *wireBatch) {
			rd.Reset(b.frame)
			payload, err := serve.ReadFrame(&rd, buf)
			if err == nil {
				buf = payload[:cap(payload)]
				_, _, err = serve.ParseFrame(payload)
			}
			if err != nil {
				ferr = err
			}
		})
		return float64(d) / n, ferr
	})
	if err != nil {
		return err
	}
	decode, err := repeat(func() (float64, error) {
		var dst []core.Edge
		var ferr error
		d := each("serve.ParseEdges", func(b *wireBatch) {
			es, _, err := serve.ParseEdges(b.payload[1:], dst)
			if err != nil {
				ferr = err
			}
			dst = es
		})
		return float64(d) / n, ferr
	})
	if err != nil {
		return err
	}
	ack, err := repeat(func() (float64, error) {
		var buf []byte
		var ferr error
		d := each("serve.EdgesAck.Append+ParseEdgesAck", func(b *wireBatch) {
			a := serve.EdgesAck{Watermark: uint64(b.clock) + uint64(len(b.edges))}
			buf = a.Append(buf[:0])
			if _, err := serve.ParseEdgesAck(buf[1:]); err != nil {
				ferr = err
			}
		})
		return float64(d) / float64(frames), ferr
	})
	if err != nil {
		return err
	}
	kernel, err := repeat(func() (float64, error) {
		var d time.Duration
		for i, c := range caps {
			rep := core.NewCompiledReplayer(compiled[i])
			for k := range batches[i] {
				b := &batches[i][k]
				d += p.log.timed("core.CompiledReplayer.AdvanceBatch", phase, func() { rep.AdvanceBatch(b.edges) })
			}
			if *rep.Stats() != c.win.stats || rep.Cur() != c.win.final {
				return 0, fmt.Errorf("kernel re-drive of a %s window differs from the reference replayer", c.win.img.name)
			}
		}
		return float64(d) / n, nil
	})
	if err != nil {
		return err
	}

	// The layer-sum check: what the session costs beyond the layers timed
	// alone must not be negative by more than the spread of the readings it
	// is computed from, or the readings do not describe the session.
	ackShare := float64(frames) / n
	sum := encode.median + write.median + read.median + decode.median + kernel.median + ack.median*ackShare
	spread := session.iqr + encode.iqr + write.iqr + read.iqr + decode.iqr + kernel.iqr + ack.iqr*ackShare
	residue := session.median - sum
	p.printf("layer sum %.2f + residue %.2f = session %.2f ns/edge (spread %.2f)", sum, residue, session.median, spread)
	if residue < -spread {
		return fmt.Errorf("serve layers sum to %.2f ns/edge, above the session's %.2f by more than the spread %.2f: the layer readings are wrong",
			sum, session.median, spread)
	}

	// Stride tables are built per image, with that image's session windows
	// as the profiling sample, as an image admitted with its tables would
	// be; each session window then replays alone on the result.
	var fused, total uint64
	for _, img := range p.w.images {
		var sample []core.Edge
		var base *core.Compiled
		for i, c := range caps {
			if c.win.img == img {
				sample = append(sample, c.win.edges()...)
				base = compiled[i]
			}
		}
		if base == nil {
			continue
		}
		var spec *core.Compiled
		p.log.timed("core.Specialize", phase, func() { spec = core.Specialize(base, sample) })
		for _, c := range caps {
			if c.win.img == img {
				rep := core.NewCompiledReplayer(spec)
				rep.AdvanceBatch(c.win.edges())
				fused += rep.StrideEdges()
				total += uint64(c.win.n)
			}
		}
	}

	reg := sj.srv.Obs().Reg
	rejects := reg.Counter("tea_serve_rejects_backpressure_total", "").Value() +
		reg.Counter("tea_serve_rejects_quota_total", "").Value() +
		reg.Counter("tea_serve_publish_rejects_total", "").Value()
	failed := reg.Counter("tea_serve_sessions_failed_total", "").Value()

	mcf := p.w.image(publishImage)
	image, err := repeat(func() (float64, error) {
		cache := cfg.NewCache(mcf.prog, cfg.StarDBT)
		var r *verify.Report
		d := p.log.timed("verify.Image", phase, func() { r = verify.Image(sj.pub, cache, serveLookup) })
		return ms(d), r.Err()
	})
	if err != nil {
		return err
	}
	var auto *core.Automaton
	decodeImg, err := repeat(func() (float64, error) {
		cache := cfg.NewCache(mcf.prog, cfg.StarDBT)
		var err error
		d := p.log.timed("core.Decode", phase, func() { auto, err = core.Decode(sj.pub, cache) })
		return ms(d), err
	})
	if err != nil {
		return err
	}
	compile, err := repeat(func() (float64, error) {
		return ms(p.log.timed("core.Compile", phase, func() { core.Compile(auto, serveLookup) })), nil
	})
	if err != nil {
		return err
	}
	p.log.record(phase, 0, "layers.serve", t0, time.Now())

	p.add("serve.session_ns_per_edge", session, "ns/edge")
	p.add("serve.encode_ns_per_edge", encode, "ns/edge")
	p.add("serve.frame_write_ns_per_edge", write, "ns/edge")
	p.add("serve.frame_read_ns_per_edge", read, "ns/edge")
	p.add("serve.decode_ns_per_edge", decode, "ns/edge")
	p.add("serve.ack_ns_per_batch", ack, "ns/batch")
	p.add("core.kernel_ns_per_edge", kernel, "ns/edge")
	p.m.add("serve.residue_ns_per_edge", residue, "ns/edge")
	p.m.add("serve.wire_bytes_per_edge", float64(wire)/n, "bytes/edge")
	p.m.add("serve.batches_per_session", float64(frames)/float64(len(caps)), "batches/session")
	p.m.add("core.stride_fusable_ratio", float64(fused)/float64(total), "ratio")
	p.m.add("serve.rejects", float64(rejects), "count")
	p.m.add("serve.sessions_failed", float64(failed), "count")
	p.add("verify.image_ms", image, "ms")
	p.add("core.decode_ms", decodeImg, "ms")
	p.add("core.compile_ms", compile, "ms")
	return nil
}

// replay times replayPasses replay-pipeline passes call by call, and the
// speculative scan alone on chunk-sized segments.
func (p *layerPhase) replay(ctx context.Context) error {
	rj := p.j.replay
	n := len(rj.stream)
	pl := pipeline.NewReplay(rj.c, pipeline.Config{Workers: replayWorkers, ChunkEdges: pipeChunk})
	var feed, barrier []float64
	for i := 0; i < replayPasses; i++ {
		t, err := rj.pass(pl, p.log)
		p.res.check(err)
		feed = append(feed, perUnit(t.fed.Sub(t.start), n))
		barrier = append(barrier, perUnit(t.done.Sub(t.fed), n))
	}
	m := pl.Metrics()
	pl.Close()

	phase := p.log.id()
	t0 := time.Now()
	var sr core.SpecResult
	scan, err := repeat(func() (float64, error) {
		var d time.Duration
		for off := 0; off < n; off += pipeChunk {
			seg := rj.stream[off:min(off+pipeChunk, n)]
			d += p.log.timed("core.Compiled.SpecReplay", phase, func() { rj.c.SpecReplay(seg, &sr) })
		}
		return perUnit(d, n), nil
	})
	if err != nil {
		return err
	}
	p.log.record(phase, 0, "layers.scan", t0, time.Now())

	p.add("pipeline.feed_ns_per_edge", readingOf(feed), "ns/edge")
	p.add("pipeline.barrier_ns_per_edge", readingOf(barrier), "ns/edge")
	p.add("core.scan_ns_per_edge", scan, "ns/edge")
	p.m.add("pipeline.backpressure_waits_per_chunk", float64(m.BackpressureWaits)/float64(m.Published), "waits/chunk")
	p.m.add("pipeline.chunks", float64(m.Published)/float64(replayPasses), "chunks/pass")
	return nil
}

// record times record-pipeline passes from cold at recordWorkers and at two
// workers, the sequential recorder the drain falls back to, and the
// speculative record scan against the finished automaton.
func (p *layerPhase) record(ctx context.Context) error {
	cj := p.j.record
	n := len(cj.edges)
	var feed, barrier, w1, w2 []float64
	var sum pipeline.Metrics
	for i := 0; i < recordPasses; i++ {
		t, m, err := cj.pass(recordWorkers, p.log)
		p.res.check(err)
		feed = append(feed, perUnit(t.fed.Sub(t.ready), n))
		barrier = append(barrier, perUnit(t.done.Sub(t.fed), n))
		w1 = append(w1, perUnit(t.op(), n))
		sum.Published += m.Published
		sum.QuietChunks += m.QuietChunks
		sum.SeqChunks += m.SeqChunks
		sum.Handoffs += m.Handoffs
		sum.Recompiles += m.Recompiles
	}
	for i := 0; i < recordW2Passes; i++ {
		t, _, err := cj.pass(2, p.log)
		p.res.check(err)
		w2 = append(w2, perUnit(t.op(), n))
	}

	phase := p.log.id()
	t0 := time.Now()
	var final *core.Automaton
	recorder, err := repeat(func() (float64, error) {
		rec, err := cj.recorder()
		if err != nil {
			return 0, err
		}
		d := p.log.timed("core.Recorder.ObserveBatch", phase, func() { rec.ObserveBatch(cj.edges, cj.instrs) })
		if *rec.Replayer().Stats() != cj.stats {
			return 0, errors.New("a sequential recording differs from the reference")
		}
		final = rec.Automaton()
		return perUnit(d, n), nil
	})
	if err != nil {
		return err
	}
	snap := core.Compile(final, core.ConfigGlobalNoLocal)
	var sr core.SpecResult
	specRecord, err := repeat(func() (float64, error) {
		var d time.Duration
		for off := 0; off < n; off += pipeChunk {
			end := min(off+pipeChunk, n)
			d += p.log.timed("core.Compiled.SpecRecord", phase, func() { snap.SpecRecord(cj.edges[off:end], cj.instrs[off:end], &sr) })
		}
		return perUnit(d, n), nil
	})
	if err != nil {
		return err
	}
	p.log.record(phase, 0, "layers.record", t0, time.Now())

	passes := float64(recordPasses)
	p.add("pipeline.record_feed_ns_per_edge", readingOf(feed), "ns/edge")
	p.add("pipeline.record_barrier_ns_per_edge", readingOf(barrier), "ns/edge")
	p.add("pipeline.record_w2_ns_per_edge", readingOf(w2), "ns/edge")
	p.add("pipeline.record_w1_ns_per_edge", readingOf(w1), "ns/edge")
	p.add("core.recorder_ns_per_edge", recorder, "ns/edge")
	p.add("core.spec_record_ns_per_edge", specRecord, "ns/edge")
	p.m.add("pipeline.quiet_chunk_ratio", float64(sum.QuietChunks)/float64(sum.Published), "ratio")
	p.m.add("pipeline.seq_chunks", float64(sum.SeqChunks)/passes, "chunks/pass")
	p.m.add("pipeline.handoffs", float64(sum.Handoffs)/passes, "count/pass")
	p.m.add("pipeline.recompiles", float64(sum.Recompiles)/passes, "count/pass")
	p.m.add("record.states", float64(cj.states), "count")
	return nil
}
