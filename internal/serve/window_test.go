package serve

import (
	"io"
	"testing"
	"time"

	"github.com/lsc-tea/tea/internal/core"
)

// helloWindowed performs a handshake that asks for windowed batches.
func (tc *testConn) helloWindowed(tenant string) {
	tc.t.Helper()
	h := Hello{Version: ProtoVersion, Tenant: tenant, Windowed: true}
	tc.send(h.Append(nil))
	typ, body := tc.recv()
	if typ != FrameHelloAck {
		tc.t.Fatalf("handshake: got %v", typ)
	}
	if ack, err := ParseHelloAck(body); err != nil || !ack.Windowed {
		tc.t.Fatalf("handshake: windowed batches not granted: %+v, %v", ack, err)
	}
}

// sendWindow writes one Edges frame per batch, the first starting at clock
// and each next one at the previous one's end, closed by a Sync, in one
// Write.
func (tc *testConn) sendWindow(clock int64, batches ...[]core.Edge) {
	tc.t.Helper()
	var win []byte
	for _, b := range batches {
		win = sealed(tc.t, win, AppendEdges(nil, b, clock))
		clock += int64(len(b))
	}
	win = sealed(tc.t, win, []byte{byte(FrameSync)})
	_ = tc.c.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := tc.c.Write(win); err != nil {
		tc.t.Fatalf("write window: %v", err)
	}
}

// sealed appends payload to dst as one framed message.
func sealed(t testing.TB, dst, payload []byte) []byte {
	t.Helper()
	at := len(dst)
	dst = append(dst, make([]byte, FrameHeaderLen)...)
	dst = append(dst, payload...)
	if err := SealFrame(dst[at:]); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestWindowAcksOnlyTheSync: on a windowed connection the server answers a
// window of Edges frames with one cumulative EdgesAck, at its Sync.
func TestWindowAcksOnlyTheSync(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, nil)
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.helloWindowed("acme")
	if _, serr := tc.open("img", ""); serr != nil {
		t.Fatalf("open: %v", serr)
	}
	tc.sendWindow(0, f.edges[:8], f.edges[8:24], f.edges[24:32])
	typ, body := tc.recv()
	if typ != FrameEdgesAck {
		t.Fatalf("window: got %v, want EdgesAck", typ)
	}
	if ack, err := ParseEdgesAck(body); err != nil || ack.Watermark != 32 {
		t.Fatalf("window ack: %+v, %v; want watermark 32", ack, err)
	}
	tc.sendWindow(32, f.edges[32:])
	if typ, _ := tc.recv(); typ != FrameEdgesAck {
		t.Fatalf("second window: got %v, want EdgesAck", typ)
	}
	m, serr := tc.closeSession()
	if serr != nil {
		t.Fatalf("close: %v", serr)
	}
	if m.Stats != f.want || m.Final != f.final {
		t.Fatalf("served stats diverged from sequential replay:\n got %+v\nwant %+v", m.Stats, f.want)
	}
}

// TestSyncOnLegacyConnectionRejected: Sync belongs to windowed connections
// only; a legacy peer sending one violates the protocol.
func TestSyncOnLegacyConnectionRejected(t *testing.T) {
	s := newTestServer(t, nil)
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.hello("acme")
	if _, serr := tc.open("img", ""); serr != nil {
		t.Fatalf("open: %v", serr)
	}
	tc.send([]byte{byte(FrameSync)})
	typ, body := tc.recv()
	if typ != FrameError {
		t.Fatalf("Sync on a legacy connection: got %v, want Error", typ)
	}
	if serr, err := ParseError(body); err != nil || serr.Code != CodeProto {
		t.Fatalf("got %v (%v), want a protocol error", serr, err)
	}
}

// TestWindowGapResumes: a frame whose clock is ahead of the session's
// watermark means earlier frames were lost in flight. The server closes the
// connection without failing the session, and a resume on a new
// connection gets the watermark before the gap back.
func TestWindowGapResumes(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, nil)
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.helloWindowed("acme")
	ack, serr := tc.open("img", "")
	if serr != nil {
		t.Fatalf("open: %v", serr)
	}
	tc.sendWindow(0, f.edges[:8])
	if typ, _ := tc.recv(); typ != FrameEdgesAck {
		t.Fatalf("first window: got %v, want EdgesAck", typ)
	}
	// The frame for [8,16) is lost; the one for [16,24) arrives.
	tc.sendWindow(16, f.edges[16:24])
	_ = tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(tc.c, nil); err != io.EOF {
		t.Fatalf("after a gap: got %v, want the connection closed", err)
	}

	tc2 := dialPipe(t, s)
	defer tc2.c.Close()
	tc2.helloWindowed("acme")
	back, serr := tc2.open("img", ack.Session)
	if serr != nil {
		t.Fatalf("resume: %v", serr)
	}
	if back.Watermark != 8 {
		t.Fatalf("resumed at watermark %d, want 8", back.Watermark)
	}
	tc2.sendWindow(8, f.edges[8:16], f.edges[16:])
	if typ, _ := tc2.recv(); typ != FrameEdgesAck {
		t.Fatalf("resumed window: got %v, want EdgesAck", typ)
	}
	m, serr := tc2.closeSession()
	if serr != nil {
		t.Fatalf("close: %v", serr)
	}
	if m.Stats != f.want || m.Final != f.final {
		t.Fatalf("resumed stats diverged from sequential replay:\n got %+v\nwant %+v", m.Stats, f.want)
	}
}

// TestWindowKillSendsOneError: a session-ending error raised on frame 1 of
// a four-frame window is sent once, at the Sync; the window's remaining
// frames are discarded and the connection stays usable.
func TestWindowKillSendsOneError(t *testing.T) {
	f := testFixture(t)
	// The byte quota admits frame 0's body and not frame 1's on top of it.
	frame0 := len(AppendEdges(nil, f.edges[:8], 0)) - 1
	for _, tt := range []struct {
		name  string
		quota Quota
		wait  time.Duration
		code  Code
	}{
		{"steps", Quota{MaxSessionEdges: 12}, 0, CodeQuotaSteps},
		{"bytes", Quota{MaxSessionBytes: uint64(frame0) + 1}, 0, CodeQuotaBytes},
		{"deadline", Quota{SessionTimeout: time.Millisecond}, 5 * time.Millisecond, CodeDeadline},
	} {
		t.Run(tt.name, func(t *testing.T) {
			s := newTestServer(t, func(c *Config) { c.Quota = tt.quota })
			tc := dialPipe(t, s)
			defer tc.c.Close()
			tc.helloWindowed("acme")
			if _, serr := tc.open("img", ""); serr != nil {
				t.Fatalf("open: %v", serr)
			}
			time.Sleep(tt.wait)
			tc.sendWindow(0, f.edges[:8], f.edges[8:16], f.edges[16:24], f.edges[24:32])
			typ, body := tc.recv()
			if typ != FrameError {
				t.Fatalf("window: got %v, want Error", typ)
			}
			if serr, err := ParseError(body); err != nil || serr.Code != tt.code {
				t.Fatalf("got %v (%v), want %v", serr, err, tt.code)
			}
			// The next frame answers the next request: no second Error.
			if _, serr := tc.open("img", ""); serr != nil {
				t.Fatalf("open after the kill: %v", serr)
			}
		})
	}
}
