// Transport tests for the serve hot path: every Write on either end
// carries whole frames only, the client sends each window of Edges frames
// in one Write, and buffered frame reads reassemble frames however the
// transport splits them.
package serve_test

import (
	"context"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/serve"
	"github.com/lsc-tea/tea/internal/serve/client"
)

// frameConn checks that every Write on a connection carries whole frames
// only, and tallies the Writes and the frames written by type.
type frameConn struct {
	net.Conn
	t  *testing.T
	mu sync.Mutex
	w  writeTally
}

// writeTally is one connection end's Write record.
type writeTally struct {
	writes  int
	frames  map[serve.FrameType]int
	windows int // Writes carrying Edges frames
	lone    int // Writes carrying Edges frames but no closing Sync
	big     int // multi-frame Writes longer than serve.ReadBufferSize
}

func newFrameConn(t *testing.T, c net.Conn) *frameConn {
	return &frameConn{Conn: c, t: t, w: writeTally{frames: map[serve.FrameType]int{}}}
}

func (c *frameConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.w.writes++
	var types []serve.FrameType
	for rest := p; len(rest) > 0; {
		if len(rest) < serve.FrameHeaderLen+1 {
			c.t.Errorf("Write ends in a partial frame header (%d bytes)", len(rest))
			break
		}
		n := serve.FrameHeaderLen + int(binary.BigEndian.Uint32(rest)) - 4
		if n > len(rest) {
			c.t.Errorf("Write ends in a partial frame: %d of %d bytes", len(rest), n)
			break
		}
		types = append(types, serve.FrameType(rest[serve.FrameHeaderLen]))
		rest = rest[n:]
	}
	edges := 0
	for _, typ := range types {
		c.w.frames[typ]++
		if typ == serve.FrameEdges {
			edges++
		}
	}
	if edges > 0 {
		c.w.windows++
		if types[len(types)-1] != serve.FrameSync || len(types) != edges+1 {
			c.w.lone++
		}
	}
	if len(types) > 1 && len(p) > serve.ReadBufferSize {
		c.w.big++
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *frameConn) tally() writeTally {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w
}

// oneByteConn delivers at most one byte per Read.
type oneByteConn struct{ net.Conn }

func (c oneByteConn) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return c.Conn.Read(p)
}

// pipeClient returns a client whose single dial opens a net.Pipe: s serves
// srvSide of the server end, the client talks through cliSide of its end.
func pipeClient(t *testing.T, s *serve.Server, srvSide, cliSide func(net.Conn) net.Conn) *client.Client {
	t.Helper()
	cl, err := client.New(pipeConfig(t, s, srvSide, cliSide))
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// pipeConfig is pipeClient's client configuration.
func pipeConfig(t *testing.T, s *serve.Server, srvSide, cliSide func(net.Conn) net.Conn) client.Config {
	dialed := false
	return client.Config{
		Tenant:  "acme",
		Retries: -1,
		Seed:    1,
		Dial: func() (net.Conn, error) {
			if dialed {
				t.Error("client redialed: the session was interrupted")
			}
			dialed = true
			cli, srv := net.Pipe()
			go s.ServeConn(srvSide(srv))
			return cliSide(cli), nil
		},
	}
}

// hostFixture hosts the first chaos image on a fresh server.
func hostFixture(t testing.TB) (*serve.Server, chaosImage) {
	t.Helper()
	img := chaosFixture(t)[0]
	s := serve.NewServer(serve.Config{IdleTimeout: 5 * time.Second})
	if err := s.Host(img.name, img.prog, img.auto); err != nil {
		t.Fatalf("Host: %v", err)
	}
	return s, img
}

// repeated returns img with its stream repeated until it holds at least n
// edges, and the sequential-replay answer for that stream.
func repeated(img chaosImage, n int) chaosImage {
	edges := make([]core.Edge, 0, n+len(img.edges))
	for len(edges) < n {
		edges = append(edges, img.edges...)
	}
	img.edges = edges
	img.want, img.final = core.SequentialReplay(core.Compile(img.auto, core.LookupConfig{}), edges, nil)
	return img
}

// TestWritesCarryWholeFrames: over a full Hello → Open → windows → Close →
// Stats session, every Write on either end carries whole frames only. The
// client sends each window — its Edges frames and the closing Sync — in
// one Write of at most serve.ReadBufferSize bytes, and the server answers
// each window with one EdgesAck in one Write.
func TestWritesCarryWholeFrames(t *testing.T) {
	s, img := hostFixture(t)
	img = repeated(img, 24<<10)
	var srv, cli *frameConn
	cl := pipeClient(t, s,
		func(c net.Conn) net.Conn { srv = newFrameConn(t, c); return srv },
		func(c net.Conn) net.Conn { cli = newFrameConn(t, c); return cli })
	defer cl.Close()

	const batch = 16
	stats, final, err := cl.Replay(context.Background(), img.name, img.edges, batch)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if *stats != img.want || final != img.final {
		t.Fatalf("stats diverged from sequential replay:\n got %+v\nwant %+v", *stats, img.want)
	}
	cw, sw := cli.tally(), srv.tally()
	batches := (len(img.edges) + batch - 1) / batch
	if cw.frames[serve.FrameEdges] != batches {
		t.Errorf("client wrote %d Edges frames, want %d", cw.frames[serve.FrameEdges], batches)
	}
	if cw.windows < 2 {
		t.Errorf("the stream went out in %d windows, want several", cw.windows)
	}
	if cw.lone != 0 || cw.big != 0 {
		t.Errorf("%d window Writes lack their closing Sync, %d exceed the read buffer", cw.lone, cw.big)
	}
	if want := 3 + cw.windows; cw.writes != want || cw.frames[serve.FrameSync] != cw.windows {
		t.Errorf("client issued %d writes with %d Syncs for %d windows, want %d writes", cw.writes, cw.frames[serve.FrameSync], cw.windows, want)
	}
	// HelloAck, OpenAck, one EdgesAck per window, Stats: one frame a Write.
	if want := 3 + cw.windows; sw.writes != want || sw.frames[serve.FrameEdgesAck] != cw.windows {
		t.Errorf("server issued %d writes with %d EdgesAcks for %d windows, want %d writes", sw.writes, sw.frames[serve.FrameEdgesAck], cw.windows, want)
	}
}

// TestFramesReassembleFromSingleByteReads: with both ends of the
// connection delivering one byte per Read, buffered frame reads still
// reassemble every frame, and the session ends with the byte-exact
// reference Stats. Batch 16 gives every window many frames.
func TestFramesReassembleFromSingleByteReads(t *testing.T) {
	for _, batch := range []int{512, 16} {
		s, img := hostFixture(t)
		oneByte := func(c net.Conn) net.Conn { return oneByteConn{c} }
		cl := pipeClient(t, s, oneByte, oneByte)
		stats, final, err := cl.Replay(context.Background(), img.name, img.edges, batch)
		cl.Close()
		if err != nil {
			t.Fatalf("batch %d: Replay: %v", batch, err)
		}
		if *stats != img.want || final != img.final {
			t.Fatalf("batch %d: stats diverged from sequential replay:\n got %+v\nwant %+v", batch, *stats, img.want)
		}
	}
}

// muteConn forwards the server's first answers writes, each after delay,
// then swallows every later one: the server behind it stops answering.
// muted receives the time of the first swallowed write.
type muteConn struct {
	net.Conn
	answers int
	delay   time.Duration
	muted   chan time.Time
}

func (c *muteConn) Write(p []byte) (int, error) {
	if c.answers == 0 {
		select {
		case c.muted <- time.Now():
		default:
		}
		return len(p), nil
	}
	c.answers--
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// TestClientTimeoutBounds: a client whose server stops answering after the
// handshake fails no earlier than Config.Timeout after the server went
// silent, and no later than 9/8 of it.
func TestClientTimeoutBounds(t *testing.T) {
	const (
		timeout    = 1200 * time.Millisecond
		clockSlack = 2 * time.Millisecond
		wakeSlack  = 100 * time.Millisecond
	)
	s, img := hostFixture(t)
	muted := make(chan time.Time, 1)
	// The HelloAck comes a while after the client started waiting for it,
	// so a deadline last refreshed then must still leave the full timeout
	// after the server goes silent.
	cfg := pipeConfig(t, s,
		func(c net.Conn) net.Conn {
			return &muteConn{Conn: c, answers: 1, delay: timeout / 16, muted: muted}
		},
		func(c net.Conn) net.Conn { return c })
	cfg.Timeout = timeout
	cl, err := client.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Replay(context.Background(), img.name, img.edges, 64); err == nil {
		t.Fatal("Replay succeeded against a silent server")
	}
	var elapsed time.Duration
	select {
	case at := <-muted:
		elapsed = time.Since(at)
	default:
		t.Fatal("the server never went silent")
	}
	if lo, hi := timeout-clockSlack, timeout+timeout/8+wakeSlack; elapsed < lo || elapsed > hi {
		t.Fatalf("client failed %v after the server went silent, want within [%v, %v]", elapsed, lo, hi)
	}
}

// BenchmarkSessionTCP times whole client.Replay sessions over loopback TCP
// into Server.Serve, at batch 512 on a repeated fixture stream of 16k
// edges, and reports ns/edge: the transport cost off net.Pipe.
func BenchmarkSessionTCP(b *testing.B) {
	s, img := hostFixture(b)
	img = repeated(img, 16<<10)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	go func() { _ = s.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	cl, err := client.Dial(l.Addr().String(), client.Config{Tenant: "bench", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, final, err := cl.Replay(ctx, img.name, img.edges, 512)
		if err != nil {
			b.Fatalf("Replay: %v", err)
		}
		if *stats != img.want || final != img.final {
			b.Fatalf("stats diverged from sequential replay")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(img.edges)), "ns/edge")
}

// BenchmarkServeSession times whole client.Replay sessions over net.Pipe
// into Server.ServeConn, at batch 512 on each chaos image repeated to 16k
// edges, with the per-session trace events off (Config.DisableSessionEvents)
// and on, and reports ns/edge. The off/on pair prices the session event
// stream; ci.sh pairs both rows against the parent commit.
func BenchmarkServeSession(b *testing.B) {
	for _, img := range chaosFixture(b) {
		img = repeated(img, 16<<10)
		for _, events := range []string{"off", "on"} {
			b.Run(img.name+"/events="+events, func(b *testing.B) {
				s := serve.NewServer(serve.Config{DisableSessionEvents: events == "off"})
				if err := s.Host(img.name, img.prog, img.auto); err != nil {
					b.Fatalf("Host: %v", err)
				}
				cl, err := client.New(client.Config{Tenant: "bench", Seed: 1, Dial: func() (net.Conn, error) {
					cli, srv := net.Pipe()
					go s.ServeConn(srv)
					return cli, nil
				}})
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					stats, final, err := cl.Replay(context.Background(), img.name, img.edges, 512)
					if err != nil {
						b.Fatalf("Replay: %v", err)
					}
					if *stats != img.want || final != img.final {
						b.Fatalf("stats diverged from sequential replay")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(img.edges)), "ns/edge")
			})
		}
	}
}
