//go:build unix

package pipeline

import (
	"fmt"
	"runtime/debug"
	"syscall"
	"testing"
	"time"
)

// cpuTime returns the process's user plus system CPU time.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestPipelineIdleCostsNoCPU: after a Barrier every worker and the drain
// park, so an idle pipeline burns no CPU. The process may spend at most
// 3 ms of CPU over 200 ms of idling (1.5% of one core). Parked sides read
// about 0.2 ms on a 2-vCPU x86 host; waiters that poll spend more, whether
// they yield (about 350 ms) or sleep 100 µs between polls (about 9 ms).
func TestPipelineIdleCostsNoCPU(t *testing.T) {
	c, stream := replayFixture(t, testProgram(t, 23))
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pl := NewReplay(c, Config{Workers: workers})
			defer pl.Close()
			pl.Feed(stream)
			pl.Barrier()
			// Collect and return freed memory now, so neither the collector
			// nor the background scavenger runs in the measured window, and
			// let the spin phase run out.
			debug.FreeOSMemory()
			time.Sleep(20 * time.Millisecond)
			before := cpuTime(t)
			time.Sleep(200 * time.Millisecond)
			if used := cpuTime(t) - before; used > 3*time.Millisecond {
				t.Fatalf("idle pipeline used %v of CPU in 200ms, want under 3ms", used)
			} else {
				t.Logf("idle pipeline used %v of CPU in 200ms", used)
			}
		})
	}
}
