// Transport tests for the serve hot path: each frame leaves in exactly one
// Write on both ends, and buffered frame reads reassemble frames however
// the transport splits them.
package serve_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lsc-tea/tea/internal/serve"
	"github.com/lsc-tea/tea/internal/serve/client"
)

// countConn counts the Write calls made on a connection.
type countConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
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
	dialed := false
	cl, err := client.New(client.Config{
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
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// hostFixture hosts the first chaos image on a fresh server.
func hostFixture(t *testing.T) (*serve.Server, chaosImage) {
	t.Helper()
	img := chaosFixture(t)[0]
	s := serve.NewServer(serve.Config{IdleTimeout: 5 * time.Second})
	if err := s.Host(img.name, img.prog, img.auto); err != nil {
		t.Fatalf("Host: %v", err)
	}
	return s, img
}

// TestOneWritePerFrame: over a full Hello → Open → Edges* → Close → Stats
// session, the client and the server each issue exactly one Write per
// frame they send — header and payload leave together.
func TestOneWritePerFrame(t *testing.T) {
	s, img := hostFixture(t)
	var srvWrites, cliWrites atomic.Int64
	cl := pipeClient(t, s,
		func(c net.Conn) net.Conn { return countConn{c, &srvWrites} },
		func(c net.Conn) net.Conn { return countConn{c, &cliWrites} })
	defer cl.Close()

	const batch = 64
	stats, final, err := cl.Replay(context.Background(), img.name, img.edges, batch)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if *stats != img.want || final != img.final {
		t.Fatalf("stats diverged from sequential replay:\n got %+v\nwant %+v", *stats, img.want)
	}
	batches := (len(img.edges) + batch - 1) / batch
	frames := int64(3 + batches) // Hello/HelloAck, Open/OpenAck, the batches, Close/Stats
	if got := cliWrites.Load(); got != frames {
		t.Errorf("client issued %d writes for %d frames", got, frames)
	}
	if got := srvWrites.Load(); got != frames {
		t.Errorf("server issued %d writes for %d frames", got, frames)
	}
}

// TestFramesReassembleFromSingleByteReads: with both ends of the
// connection delivering one byte per Read, buffered frame reads still
// reassemble every frame, and the session ends with the byte-exact
// reference Stats.
func TestFramesReassembleFromSingleByteReads(t *testing.T) {
	s, img := hostFixture(t)
	oneByte := func(c net.Conn) net.Conn { return oneByteConn{c} }
	cl := pipeClient(t, s, oneByte, oneByte)
	defer cl.Close()
	stats, final, err := cl.Replay(context.Background(), img.name, img.edges, 512)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if *stats != img.want || final != img.final {
		t.Fatalf("stats diverged from sequential replay:\n got %+v\nwant %+v", *stats, img.want)
	}
}
