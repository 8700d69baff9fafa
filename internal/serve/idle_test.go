package serve

import (
	"io"
	"testing"
	"time"
)

// Idle-kill bounds. A silent peer loses its connection no earlier than the
// idle timeout after its last byte, and no later than 9/8 of it. The
// measurements carry two allowances: clockSlack for the microseconds
// between the test's clock reading and the server's at the same hand-off,
// and wakeSlack for the scheduler waking the test after the kill.
const (
	idleTimeout = 1200 * time.Millisecond
	clockSlack  = 2 * time.Millisecond
	wakeSlack   = 100 * time.Millisecond
)

// checkIdleKill fails t unless a kill observed elapsed after the peer went
// silent lies within the idle-kill bounds of idle.
func checkIdleKill(t *testing.T, what string, elapsed, idle time.Duration) {
	t.Helper()
	if lo, hi := idle-clockSlack, idle+idle/8+wakeSlack; elapsed < lo || elapsed > hi {
		t.Fatalf("%s: killed %v after going silent, want within [%v, %v]", what, elapsed, lo, hi)
	}
}

// awaitClose blocks until the server closes tc's connection and returns
// when that happened.
func (tc *testConn) awaitClose() time.Time {
	tc.t.Helper()
	_ = tc.c.SetReadDeadline(time.Now().Add(10 * idleTimeout))
	var b [64]byte
	for {
		if _, err := tc.c.Read(b[:]); err != nil {
			if err != io.EOF {
				tc.t.Fatalf("read: %v, want the server to close the connection", err)
			}
			return time.Now()
		}
	}
}

// TestIdleKillBounds pins the server's idle-kill semantics for a peer that
// goes silent between frames and one that goes silent mid-frame. A silent
// peer's clock starts at its last byte; mid-frame it starts when the
// server began reading the frame, which is how the bound held when every
// frame reset its deadline.
func TestIdleKillBounds(t *testing.T) {
	t.Run("after-open", func(t *testing.T) {
		t.Parallel()
		s := newTestServer(t, func(c *Config) { c.IdleTimeout = idleTimeout })
		tc := dialPipe(t, s)
		defer tc.c.Close()
		tc.hello("acme")
		// The Open comes a while after the handshake, so a deadline last
		// refreshed then must still leave the full timeout after it.
		time.Sleep(idleTimeout / 16)
		if _, serr := tc.open("img", ""); serr != nil {
			t.Fatalf("open: %v", serr)
		}
		silent := time.Now()
		checkIdleKill(t, "silent after Open", tc.awaitClose().Sub(silent), idleTimeout)
	})
	t.Run("mid-frame", func(t *testing.T) {
		t.Parallel()
		f := testFixture(t)
		s := newTestServer(t, func(c *Config) { c.IdleTimeout = idleTimeout })
		tc := dialPipe(t, s)
		defer tc.c.Close()
		tc.hello("acme")
		if _, serr := tc.open("img", ""); serr != nil {
			t.Fatalf("open: %v", serr)
		}
		frame := AppendEdges(make([]byte, FrameHeaderLen), f.edges[:64], 0)
		if err := SealFrame(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.c.Write(frame[:len(frame)/2]); err != nil {
			t.Fatalf("write: %v", err)
		}
		silent := time.Now()
		checkIdleKill(t, "silent mid-frame", tc.awaitClose().Sub(silent), idleTimeout)
	})
}
