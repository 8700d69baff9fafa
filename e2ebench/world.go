package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/dbt"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/serve"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

// programTarget is the dynamic instruction budget of each generated
// program, the experiment harness's default; at it the captured 176.gcc
// stream holds about 400k edges. The tests lower it to run on small
// programs.
var programTarget uint64 = 5_000_000

// traceCfg configures trace selection for the DBT recording and for online
// recording: the experiment harness's scaled hot threshold.
var traceCfg = trace.Config{HotThreshold: 12}

// serveLookup is the lookup configuration the server hosts its images
// with, and so the one the session reference replays with.
var serveLookup = core.ConfigGlobalLocal

// imageNames are the images the server hosts; pipeImage also feeds the two
// pipeline workloads.
var imageNames = []string{"181.mcf", "176.gcc", "901.steady", "902.stream"}

// image is one generated program, its DBT-recorded automaton and the block
// stream captured from an instrumented run of it.
type image struct {
	name   string
	prog   *isa.Program
	auto   *core.Automaton
	stream []core.Edge // replay currency: one edge per reported block edge
	edges  []cfg.Edge  // record currency, parallel to instrs
	instrs []uint64
}

// world is the set-up every workload shares: the images and the server
// hosting them.
type world struct {
	images []*image
	srv    *serve.Server
}

// setupWorld generates each program, records its traces under the DBT,
// captures its block stream and hosts it: the work setup_s measures.
func setupWorld() (*world, error) {
	w := &world{srv: serve.NewServer(serve.Config{Lookup: serveLookup})}
	for _, name := range imageNames {
		spec, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no workload program %s", name)
		}
		prog, err := workload.Generate(spec, programTarget)
		if err != nil {
			return nil, err
		}
		d, err := dbt.New().Run(prog, "mret", traceCfg, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: record traces: %w", name, err)
		}
		capt := teatool.NewEdgeCaptureTool()
		if _, err := pin.New().Run(prog, capt, 0); err != nil {
			return nil, fmt.Errorf("%s: capture: %w", name, err)
		}
		img := &image{name: name, prog: prog, auto: core.Build(d.Set), edges: capt.Edges(), instrs: capt.Instrs()}
		for i, e := range img.edges {
			if e.To != nil {
				img.stream = append(img.stream, core.Edge{Label: e.To.Head, Instrs: img.instrs[i]})
			}
		}
		if len(img.stream) < 2 {
			return nil, fmt.Errorf("%s: captured stream has %d edges", name, len(img.stream))
		}
		if err := w.srv.Host(name, prog, img.auto); err != nil {
			return nil, fmt.Errorf("%s: host: %w", name, err)
		}
		w.images = append(w.images, img)
	}
	return w, nil
}

// image returns the image named name; setupWorld made every one.
func (w *world) image(name string) *image {
	for _, img := range w.images {
		if img.name == name {
			return img
		}
	}
	panic("e2ebench: no image " + name)
}

// subSeed derives the seed of one independent random stream of a run.
func subSeed(seed, stream int64) int64 { return seed*1_000_003 + stream }

// jobs holds every workload's inputs, drawn from one seed, with their
// reference answers. The traced run measures every layer, so it needs all
// three whichever workload it times.
type jobs struct {
	serve  *serveJob
	replay *replayJob
	record *recordJob
}

func newJobs(w *world, seed int64) (*jobs, error) {
	sj, err := newServeJob(w, seed)
	if err != nil {
		return nil, err
	}
	gcc := w.image(pipeImage)
	cj, err := newRecordJob(gcc, seed)
	if err != nil {
		return nil, err
	}
	return &jobs{serve: sj, replay: newReplayJob(gcc, seed), record: cj}, nil
}

// loopFunc runs one workload's closed loop: operations start until until,
// those starting at or after from are measured, and every answer is
// checked. A non-nil log receives a span around each call.
type loopFunc func(ctx context.Context, from, until time.Time, log *spanLog) (*result, error)

func (j *jobs) loop(workload string) loopFunc {
	switch workload {
	case "serve-sessions":
		return j.serve.loop
	case "replay-aperiodic":
		return j.replay.loop
	}
	return j.record.loop
}

// digestOps is how many operations of the client's schedule the digest
// covers.
const digestOps = 256

// digest fingerprints everything the seed drew: the window pool, the first
// digestOps operations of the client's schedule and the two pipeline
// rotations. Two runs with one seed print the same digest.
func (j *jobs) digest() string {
	h := sha256.New()
	for _, wd := range j.serve.pool {
		fmt.Fprintf(h, "%s %d %d\n", wd.img.name, wd.off, wd.n)
	}
	s := newSchedule(j.serve.seed, len(j.serve.pool))
	for k := 0; k < digestOps; k++ {
		fmt.Fprintf(h, "%d ", s.next())
	}
	fmt.Fprintf(h, "\n%d %d\n", j.replay.rot, j.record.rot)
	return hex.EncodeToString(h.Sum(nil)[:8])
}
