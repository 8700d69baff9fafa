package core

import (
	"testing"

	"github.com/lsc-tea/tea/internal/obs"
)

// The zero-alloc claims of the unspecialized compiled kernels, in both obs
// modes, on a perturbed stream so every slow branch (and, with obs on, every
// event kind) runs. TestStrideZeroAllocSteadyState holds the stride kernel.

func TestBatchZeroAllocSteadyState(t *testing.T) {
	a, stream := testStream(t)
	stream = perturb(stream, 5)
	for _, lc := range []LookupConfig{ConfigGlobalLocal, ConfigGlobalNoLocal} {
		for _, on := range []bool{false, true} {
			r := NewCompiledReplayer(Compile(a, lc))
			if on {
				r.SetObs(obs.New())
			}
			r.AdvanceBatch(stream) // warm caches and the event buffer
			if n := testing.AllocsPerRun(20, func() { r.AdvanceBatch(stream) }); n != 0 {
				t.Fatalf("%v obs=%v: AdvanceBatch allocates %.2f per batch, want 0", lc, on, n)
			}
		}
	}
}

// TestSpecReplayMergeZeroAlloc: SpecReplay(Obs) on a reused SpecResult and
// Merge(Obs) on a reused Reconciler allocate nothing once their buffers
// have grown. The merged segment starts inside a trace, so the junction
// re-replay runs.
func TestSpecReplayMergeZeroAlloc(t *testing.T) {
	a, stream := testStream(t)
	stream = perturb(stream, 5)
	c := Compile(a, ConfigGlobalNoLocal)
	entry := NewCompiledReplayer(c)
	h := len(stream) / 2
	entry.AdvanceBatch(stream[:h])
	for entry.Cur() == NTE {
		entry.AdvanceBatch(stream[h : h+1])
		h++
	}
	seg := stream[h:]
	cur, des := entry.Cur(), entry.Desynced()
	want, _ := SequentialReplay(c, stream, nil)
	pre := *entry.Stats()

	var sr SpecResult
	var rc Reconciler
	var merged []obs.Event
	for _, on := range []bool{false, true} {
		pass := func() {
			if on {
				c.SpecReplayObs(seg, uint64(h), &sr)
				merged = merged[:0]
				d, _, _ := rc.Merge(c, seg, uint64(h), cur, des, &sr, &merged)
				d.Add(&pre)
				if d != want {
					t.Fatalf("obs=on: merged stats %+v, want %+v", d, want)
				}
				return
			}
			c.SpecReplay(seg, &sr)
			d, _, _ := rc.Merge(c, seg, 0, cur, des, &sr, nil)
			d.Add(&pre)
			if d != want {
				t.Fatalf("obs=off: merged stats %+v, want %+v", d, want)
			}
		}
		pass() // grow the buffers
		if n := testing.AllocsPerRun(20, pass); n != 0 {
			t.Fatalf("obs=%v: SpecReplay+Merge allocates %.2f per segment, want 0", on, n)
		}
	}
	if len(merged) == 0 {
		t.Fatal("obs-on merge spliced no events; the stream exercises nothing")
	}
}
