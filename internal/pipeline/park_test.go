package pipeline

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lsc-tea/tea/internal/core"
)

// waitFor polls cond until it holds, failing the test after a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// finishes runs f and fails the test if it has not returned within d: a
// lost wake-up leaves some side parked with its condition true, so the
// pipeline hangs rather than answering wrong.
func finishes(t *testing.T, what string, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v: a side stayed parked", what, d)
	}
}

// spin busy-waits for d without yielding, so the pipeline's sides run out
// of work and park while the producer is away.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestParkerReChecksAfterRegistering puts the signal in the one window a
// spin-then-park wait cannot see by polling: after the waiter's last
// failed check and before it registers. The signaler makes the condition
// true and calls wake, which finds no waiter registered and sends no
// token. Only the re-check between registering and blocking lets the
// waiter see the condition; a waiter that blocks straight after
// registering stays parked for good, and the test fails at its deadline.
// The hook runs on the registration step only, so the injection point is
// exact and the test needs no timing luck.
func TestParkerReChecksAfterRegistering(t *testing.T) {
	var k parker
	k.init(1)
	var ready atomic.Bool
	hooks := 0
	k.registering = func() {
		hooks++
		ready.Store(true)
		k.wake()
	}
	pauses := 0
	finishes(t, "a wait signaled just before it registered", 5*time.Second, func() {
		n := 0
		for !ready.Load() {
			n = k.pause(n)
			pauses++
		}
		k.done(n)
	})
	if hooks != 1 || pauses != spinChecks+1 {
		t.Fatalf("signal not injected at registration: %d hook calls after %d pauses, want 1 after %d", hooks, pauses, spinChecks+1)
	}
	if w := k.waiters.Load(); w != 0 {
		t.Fatalf("%d waiters still registered after done", w)
	}
	if n := len(k.tok); n != 0 {
		t.Fatalf("wake sent %d tokens with no waiter registered", n)
	}
}

// TestPipelineNoLostWakeup: with four chunk buffers and chunks of one to
// three edges, the workers, the drain and the producer wait on each other
// at the high watermark and at the barrier, and busy pauses of up to 56 µs
// between and inside cycles let the waiting sides run out their spin and
// park. Thousands of Feed/Barrier/Reset cycles over streams of varying
// length must all finish, each with the sequential answer.
func TestPipelineNoLostWakeup(t *testing.T) {
	c, stream := replayFixture(t, testProgram(t, 21))
	stream = stream[:64]
	type want struct {
		st  core.Stats
		cur core.StateID
	}
	wants := make([]want, len(stream)+1)
	for n := range wants {
		wants[n].st, wants[n].cur = core.SequentialReplay(c, stream[:n], nil)
	}
	for workers := 1; workers <= 4; workers++ {
		ce := 1 + workers%3
		t.Run(fmt.Sprintf("workers=%d/chunk=%d", workers, ce), func(t *testing.T) {
			pl := NewReplay(c, Config{Workers: workers, ChunkEdges: ce, Depth: 4})
			finishes(t, "3000 Feed/Barrier/Reset cycles", time.Minute, func() {
				for i := 0; i < 3000; i++ {
					n := (i * 37) % len(wants)
					pl.Feed(stream[:n/2])
					spin(time.Duration(i%8) * 8 * time.Microsecond)
					pl.Feed(stream[n/2 : n])
					st, cur := pl.Barrier()
					if st != wants[n].st || cur != wants[n].cur {
						t.Errorf("cycle %d (%d edges): %+v cur=%d, want %+v cur=%d", i, n, st, cur, wants[n].st, wants[n].cur)
						return
					}
					pl.Reset()
					spin(time.Duration(i%7) * 8 * time.Microsecond)
				}
			})
			m := pl.Metrics()
			if m.Published != m.Drained {
				t.Fatalf("published %d, drained %d", m.Published, m.Drained)
			}
			finishes(t, "Close", 10*time.Second, pl.Close)
		})
	}
}

// TestPipelineCloseWhileParked: Close must wake and stop workers and a
// drain that are all parked, and a producer parked at the high watermark
// must be woken by the drain recycling a buffer.
func TestPipelineCloseWhileParked(t *testing.T) {
	c, stream := replayFixture(t, testProgram(t, 22))
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("idle/workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			pl := NewReplay(c, Config{Workers: workers, ChunkEdges: 64})
			pl.Feed(stream)
			pl.Barrier()
			waitFor(t, "every worker and the drain to park", func() bool {
				return pl.workWait.waiters.Load() == int32(workers) && pl.drainWait.waiters.Load() == 1
			})
			finishes(t, "Close", 10*time.Second, pl.Close)
			waitFor(t, "the pipeline's goroutines to exit", func() bool {
				return runtime.NumGoroutine() <= before
			})
		})
	}
	t.Run("producer-at-watermark", func(t *testing.T) {
		// A pipe whose scans hold until released: the producer publishes
		// every buffer and parks in getChunk for the next one.
		gate := make(chan struct{})
		p := &pipe{cfg: Config{Workers: 2, ChunkEdges: 1, Depth: 4}.withDefaults()}
		p.scan = func(*chunk) { <-gate }
		p.drainFn = func(*chunk) {}
		p.start(false)
		fed := make(chan struct{})
		go func() {
			defer close(fed)
			for i := 0; i < 3*p.cfg.Depth; i++ {
				p.publish(p.getChunk(), 1)
			}
		}()
		waitFor(t, "the producer to park at the high watermark", func() bool {
			return p.prodWait.waiters.Load() == 1
		})
		if w := p.bpWaits.Load(); w == 0 {
			t.Fatal("producer parked without counting a backpressure wait")
		}
		close(gate)
		finishes(t, "the parked producer", 10*time.Second, func() { <-fed })
		finishes(t, "shutdown", 10*time.Second, p.shutdown)
		if m := p.Metrics(); m.Published != uint64(3*p.cfg.Depth) || m.Drained != m.Published {
			t.Fatalf("published %d / drained %d, want %d each", m.Published, m.Drained, 3*p.cfg.Depth)
		}
	})
}
