package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/pipeline"
	"github.com/lsc-tea/tea/internal/trace"
)

// The pipeline workloads' shape: the pipeline's default chunk, named so the
// scan layers cut the same segments, two scan workers for replay and one
// for record. A cold record pass drains every chunk through the sequential
// recorder, so a second worker only scans speculatively beside the drain,
// and on a 2-CPU host its passes ran 90 or 160 ms from one process to the
// next (README.md, "Spread"); the traced run still times passes at both.
const (
	pipeImage      = "176.gcc"
	replayWorkers  = 2
	recordWorkers  = 1
	pipeChunk      = 4096
	recordStrategy = "mret"
)

// passTimes are one pipeline pass's call boundaries.
type passTimes struct{ start, ready, fed, done time.Time }

func (t passTimes) op() time.Duration { return t.done.Sub(t.start) }

// passLoop runs pass back to back until until; passes of n edges starting
// at or after from are measured.
func passLoop(ctx context.Context, from, until time.Time, n int, pass func() (passTimes, error)) *result {
	res := &result{}
	for ctx.Err() == nil && time.Now().Before(until) {
		t, err := pass()
		if err == nil && !t.start.Before(from) {
			res.ops = append(res.ops, opSample{start: t.start, dur: t.op(), edges: uint64(n)})
			res.edges += uint64(n)
		}
		res.check(err)
	}
	return res
}

// rotate returns a copy of s that starts at s[k] and wraps around.
func rotate[T any](s []T, k int) []T {
	out := make([]T, 0, len(s))
	return append(append(out, s[k:]...), s[:k]...)
}

// replayJob is replay-aperiodic's input: the captured 176.gcc stream
// rotated to a seeded start, and its reference answer.
type replayJob struct {
	c      *core.Compiled
	rot    int
	stream []core.Edge
	stats  core.Stats
	final  core.StateID
}

// newReplayJob compiles the memoryless image the pipeline needs (no local
// caches, so chunks scanned speculatively can be reconciled) and replays
// the stream through the reference core.Replayer configured the same way.
func newReplayJob(img *image, seed int64) *replayJob {
	rng := rand.New(rand.NewSource(subSeed(seed, 2)))
	j := &replayJob{c: core.Compile(img.auto, core.ConfigGlobalNoLocal), rot: rng.Intn(len(img.stream))}
	j.stream = rotate(img.stream, j.rot)
	j.stats, j.final = replayReference(img.auto, core.ConfigGlobalNoLocal, j.stream)
	return j
}

// replayReference replays edges through the reference core.Replayer, one
// Advance per edge, and returns its Stats and final state.
func replayReference(a *core.Automaton, lc core.LookupConfig, edges []core.Edge) (core.Stats, core.StateID) {
	r := core.NewReplayer(a, lc)
	for _, e := range edges {
		r.Advance(e.Label, e.Instrs)
	}
	return *r.Stats(), r.Cur()
}

func (j *replayJob) loop(ctx context.Context, from, until time.Time, log *spanLog) (*result, error) {
	pl := pipeline.NewReplay(j.c, pipeline.Config{Workers: replayWorkers, ChunkEdges: pipeChunk})
	defer pl.Close()
	return passLoop(ctx, from, until, len(j.stream), func() (passTimes, error) { return j.pass(pl, log) }), nil
}

// pass is one Feed→Barrier over the whole stream, checked against the
// reference, then a Reset for the next pass.
func (j *replayJob) pass(pl *pipeline.ReplayPipeline, log *spanLog) (passTimes, error) {
	var t passTimes
	t.start = time.Now()
	t.ready = t.start
	pl.Feed(j.stream)
	t.fed = time.Now()
	st, final := pl.Barrier()
	t.done = time.Now()
	pl.Reset()
	id := log.add("pipeline.replay_pass", 0, t.start, t.done)
	log.add("pipeline.ReplayPipeline.Feed", id, t.start, t.fed)
	log.add("pipeline.ReplayPipeline.Barrier", id, t.fed, t.done)
	if st != j.stats || final != j.final {
		return t, errors.New("replay pass differs from the reference replayer")
	}
	return t, nil
}

// recordJob is record-cold's input: the captured 176.gcc edge stream in
// record currency, rotated to a seeded start, and the answer of a
// sequential core.Recorder fed the same edges.
type recordJob struct {
	prog   *isa.Program
	rot    int
	edges  []cfg.Edge
	instrs []uint64
	stats  core.Stats
	enc    []byte // core.Encode of the sequentially recorded automaton
	states int
}

func newRecordJob(img *image, seed int64) (*recordJob, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, 3)))
	j := &recordJob{prog: img.prog, rot: rng.Intn(len(img.edges))}
	j.edges, j.instrs = rotate(img.edges, j.rot), rotate(img.instrs, j.rot)
	rec, err := j.recorder()
	if err != nil {
		return nil, err
	}
	rec.ObserveBatch(j.edges, j.instrs)
	if j.enc, err = core.Encode(rec.Automaton()); err != nil {
		return nil, fmt.Errorf("encode the reference recording: %w", err)
	}
	j.stats, j.states = *rec.Replayer().Stats(), rec.Automaton().NumStates()
	return j, nil
}

func (j *recordJob) strategy() (trace.Strategy, error) {
	s, ok := trace.NewStrategy(recordStrategy, j.prog, traceCfg)
	if !ok {
		return nil, fmt.Errorf("no trace strategy %q", recordStrategy)
	}
	return s, nil
}

// recorder returns an empty sequential recorder configured as the record
// pipeline configures its own.
func (j *recordJob) recorder() (*core.Recorder, error) {
	s, err := j.strategy()
	if err != nil {
		return nil, err
	}
	return core.NewRecorder(s, core.ConfigGlobalNoLocal), nil
}

func (j *recordJob) loop(ctx context.Context, from, until time.Time, log *spanLog) (*result, error) {
	return passLoop(ctx, from, until, len(j.edges), func() (passTimes, error) {
		t, _, err := j.pass(recordWorkers, log)
		return t, err
	}), nil
}

// pass records the whole stream from an empty automaton through a fresh
// pipeline and checks the automaton's encoding and the Stats against the
// sequential recorder.
func (j *recordJob) pass(workers int, log *spanLog) (passTimes, pipeline.Metrics, error) {
	var t passTimes
	t.start = time.Now()
	s, err := j.strategy()
	if err != nil {
		return t, pipeline.Metrics{}, err
	}
	pl := pipeline.NewRecord(s, pipeline.Config{Workers: workers, ChunkEdges: pipeChunk})
	t.ready = time.Now()
	pl.Feed(j.edges, j.instrs)
	t.fed = time.Now()
	st := pl.Barrier()
	t.done = time.Now()
	pl.Close()
	m := pl.Metrics()
	id := log.add("pipeline.record_pass", 0, t.start, t.done)
	log.add("pipeline.NewRecord", id, t.start, t.ready)
	log.add("pipeline.RecordPipeline.Feed", id, t.ready, t.fed)
	log.add("pipeline.RecordPipeline.Barrier", id, t.fed, t.done)
	enc, err := core.Encode(pl.Recorder().Automaton())
	if err != nil {
		return t, m, fmt.Errorf("encode a pipeline recording: %w", err)
	}
	if st != j.stats || !bytes.Equal(enc, j.enc) {
		return t, m, errors.New("record pass differs from the sequential recorder")
	}
	return t, m, nil
}
