package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/serve"
	"github.com/lsc-tea/tea/internal/serve/client"
)

// serve-sessions' load shape: one closed-loop client on one connection,
// which keeps a session a strict ping-pong between two goroutines; with two
// clients on a 2-CPU host the four goroutines' handoffs made a run's
// readings depend on scheduling (README.md, "Spread").
const (
	batchEdges      = 512
	minWindow       = 4096 // bounds of a session's window, in edges
	maxWindow       = 32768
	windowsPerImage = 16  // pool windows per image, one per length stratum
	publishEvery    = 128 // the client publishes on every publishEvery-th operation
	publishImage    = "181.mcf"
)

// opPublish marks a publish in a client's schedule; every other entry
// indexes the window pool.
const opPublish = -1

// window is one session's input, a contiguous window of an image's
// captured stream, with the reference answer for it.
type window struct {
	img    *image
	off, n int
	stats  core.Stats
	final  core.StateID
}

func (wd *window) edges() []core.Edge { return wd.img.stream[wd.off : wd.off+wd.n] }

// serveJob is serve-sessions' input.
type serveJob struct {
	srv  *serve.Server
	seed int64
	pool []window
	// pub is 181.mcf's own core.Encode bytes: republishing them admits an
	// equivalent generation, so every reference answer stays valid.
	pub []byte
}

// newServeJob draws the window pool and replays every window through the
// reference core.Replayer with the server's lookup configuration. Each
// image gets one window per length stratum, so the mix of images and
// lengths that sets a run's cost is the same for every seed; the seed
// draws the offsets, the length within each stratum and the order.
func newServeJob(w *world, seed int64) (*serveJob, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	j := &serveJob{srv: w.srv, seed: seed}
	for _, img := range w.images {
		hi := min(maxWindow, len(img.stream))
		lo := min(minWindow, hi/2)
		width := (hi - lo) / windowsPerImage
		for s := 0; s < windowsPerImage; s++ {
			n := lo + s*width + rng.Intn(width+1)
			wd := window{img: img, off: rng.Intn(len(img.stream) - n + 1), n: n}
			wd.stats, wd.final = replayReference(img.auto, serveLookup, wd.edges())
			j.pool = append(j.pool, wd)
		}
	}
	pub, err := core.Encode(w.image(publishImage).auto)
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", publishImage, err)
	}
	j.pub = pub
	return j, nil
}

// schedule is the client's operation sequence: the window pool in a fresh
// seeded order each cycle, with a publish on every publishEvery-th
// operation.
type schedule struct {
	rng   *rand.Rand
	pool  int
	order []int
	k     int
}

func newSchedule(seed int64, pool int) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(subSeed(seed, 10))), pool: pool}
}

// next returns the next operation: opPublish or a pool index.
func (s *schedule) next() int {
	s.k++
	if s.k%publishEvery == 0 {
		return opPublish
	}
	if len(s.order) == 0 {
		s.order = s.rng.Perm(s.pool)
	}
	op := s.order[0]
	s.order = s.order[1:]
	return op
}

// serveRun bounds one run of the client.
type serveRun struct {
	from, until time.Time // operations start before until; those starting at or after from are measured
	maxOps      int       // when > 0, the client stops after that many operations
	capture     bool      // keep each session's Edges payloads and batch byte count
	log         *spanLog
}

// capture is one session's batches as its client wrote them.
type capture struct {
	win    *window
	frames [][]byte // Edges frame payloads
	wire   int      // bytes of its Edges and EdgesAck frames, headers included
}

func (j *serveJob) loop(ctx context.Context, from, until time.Time, log *spanLog) (*result, error) {
	res, _, err := j.run(ctx, serveRun{from: from, until: until, log: log})
	return res, err
}

// run runs the client's schedule within r's bounds, on a net.Pipe into
// Server.ServeConn, and returns once the client and every connection
// handler have finished. Each operation waits for its answer before the
// next starts, so a slower server receives less load.
func (j *serveJob) run(ctx context.Context, r serveRun) (*result, []capture, error) {
	var handlers sync.WaitGroup
	defer handlers.Wait()
	log := r.log
	m := &meter{log: log}
	dial := func() (net.Conn, error) {
		cc, sc := net.Pipe()
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			j.srv.ServeConn(sc)
		}()
		return &meterConn{Conn: cc, m: m}, nil
	}
	cl, err := client.New(client.Config{Tenant: "e2ebench", Dial: dial, Seed: subSeed(j.seed, 20)})
	if err != nil {
		return nil, nil, err
	}
	defer cl.Close()
	sched := newSchedule(j.seed, len(j.pool))
	res := &result{}
	var caps []capture
	for k := 0; r.maxOps == 0 || k < r.maxOps; k++ {
		t0 := time.Now()
		if !t0.Before(r.until) || ctx.Err() != nil {
			break
		}
		measured := !t0.Before(r.from)
		m.record = measured
		op := sched.next()
		if op == opPublish {
			_, err := cl.Publish(ctx, publishImage, j.pub)
			t1 := time.Now()
			log.add("client.Publish", 0, t0, t1)
			if err != nil {
				err = fmt.Errorf("publish %s: %w", publishImage, err)
			} else if measured {
				res.pubs = append(res.pubs, t1.Sub(t0))
				res.ops = append(res.ops, opSample{start: t0, dur: t1.Sub(t0), publish: true})
			}
			res.check(err)
			continue
		}
		wd := &j.pool[op]
		m.session = log.id()
		m.capture, m.frames, m.wire = r.capture, nil, 0
		st, final, err := cl.Replay(ctx, wd.img.name, wd.edges(), batchEdges)
		t1 := time.Now()
		log.record(m.session, 0, "client.Replay", t0, t1)
		if err == nil && (*st != wd.stats || final != wd.final) {
			err = fmt.Errorf("session on %s [%d,+%d) differs from the reference replayer", wd.img.name, wd.off, wd.n)
		}
		if err == nil && measured {
			res.ops = append(res.ops, opSample{start: t0, dur: t1.Sub(t0), edges: uint64(wd.n)})
			res.edges += uint64(wd.n)
		}
		res.check(err)
		if r.capture {
			caps = append(caps, capture{win: wd, frames: m.frames, wire: m.wire})
		}
	}
	res.rtts = m.rtts
	return res, caps, nil
}

// meter is the client's view of its connections. Only the client's
// goroutine touches it: client.Client is single-goroutine, and the server
// holds the other end of each pipe.
type meter struct {
	record  bool // keep batch round trips
	rtts    []time.Duration
	capture bool // keep Edges payloads and count batch bytes
	frames  [][]byte
	wire    int
	log     *spanLog
	session int64 // span id of the session in flight
}

// meterConn is the client end of one net.Pipe. It follows the frame
// boundaries in both directions, so a batch's round trip runs from the
// moment its Edges frame starts leaving to the moment its EdgesAck has
// fully arrived.
type meterConn struct {
	net.Conn
	m        *meter
	out, in  frameCursor
	outStart time.Time // when the frame being written began
	sent     time.Time // when the last Edges frame began
	payload  []byte    // Edges payload being captured
}

// frameCursor is one direction's position in the frame stream:
// length(4) crc(4) payload, where length counts crc and payload.
type frameCursor struct {
	hdr  [8]byte
	nhdr int
	left int // payload bytes still to come
	size int // whole frame, header included
	typ  serve.FrameType
}

func (c *meterConn) Write(p []byte) (int, error) {
	if c.out.nhdr == 0 {
		c.outStart = time.Now()
	}
	n, err := c.Conn.Write(p)
	c.scan(&c.out, p[:n], true)
	return n, err
}

func (c *meterConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.scan(&c.in, p[:n], false)
	return n, err
}

// scan advances f over p and accounts every frame that completes.
func (c *meterConn) scan(f *frameCursor, p []byte, out bool) {
	for len(p) > 0 {
		if f.nhdr < len(f.hdr) {
			k := copy(f.hdr[f.nhdr:], p)
			f.nhdr += k
			p = p[k:]
			if f.nhdr == len(f.hdr) {
				f.size = len(f.hdr) + int(binary.BigEndian.Uint32(f.hdr[:4])) - 4
				f.left = f.size - len(f.hdr)
				f.typ = 0
				if f.left <= 0 {
					f.nhdr = 0
				}
			}
			continue
		}
		k := min(f.left, len(p))
		if f.typ == 0 {
			f.typ = serve.FrameType(p[0])
		}
		if out && f.typ == serve.FrameEdges && c.m.capture {
			c.payload = append(c.payload, p[:k]...)
		}
		f.left -= k
		p = p[k:]
		if f.left == 0 {
			f.nhdr = 0
			c.frameDone(f, out)
		}
	}
}

// frameDone accounts one complete frame.
func (c *meterConn) frameDone(f *frameCursor, out bool) {
	m := c.m
	switch {
	case out && f.typ == serve.FrameEdges:
		c.sent = c.outStart
		if m.capture {
			m.frames = append(m.frames, c.payload)
			m.wire += f.size
			c.payload = nil
		}
	case !out && f.typ == serve.FrameEdgesAck:
		now := time.Now()
		if m.record {
			m.rtts = append(m.rtts, now.Sub(c.sent))
		}
		if m.capture {
			m.wire += f.size
		}
		m.log.add("wire.Edges->EdgesAck", m.session, c.sent, now)
	}
}
