package core

import "github.com/lsc-tea/tea/internal/obs"

// The compiled replay kernels (step, scan, merge, advanceCached) and the
// record scans built on step (recScan, mergeRecord) are each one source
// body generic over an observability mode. obsOff and obsOn have different
// GC shapes — a zero-size struct and a one-byte one — so the compiler
// stencils a separate body for each, and inside a kernel
//
//	var mode M
//	emitting := unsafe.Sizeof(mode) != 0
//
// is a constant per body: the obsOff instance carries no event code and no
// guard, the obsOn instance appends events to a reused buffer on the slow
// branches (misses, desyncs, resyncs, trace entry) only. The hit path is the
// same in both. scripts/obsasm holds the obsOff instances to that by
// inspecting the compiled code (DESIGN.md §12).
//
// A kernel calls step per edge through its concrete instances, under
// `if emitting`, not as step[M]: a call through the type parameter loads a
// sub-dictionary from the caller's dictionary on every call, which cost
// the memoryless scan's per-edge loop (scan, behind SpecReplay) 5–13% when
// timed in one process. advanceBatch calls through M once per batch, not
// per edge.
type (
	obsOff  struct{}
	obsOn   struct{ _ byte }
	obsMode interface{ obsOff | obsOn }
)

// The cached kernel, advanceCached, takes a second mode in the same style:
// strideOn is its instance for a form with a stride table, which probes the
// cursor's fused-cycle chain at every in-sync trace state; the strideOff
// instance, for a form without one, carries no probe at all, so a table-less
// replay pays nothing per edge for the table that is not there. A runtime
// test of the table cost the table-less replay 6–15% (EXPERIMENTS.md).
type (
	strideOff  struct{}
	strideOn   struct{ _ byte }
	strideMode interface{ strideOff | strideOn }
)

// emit appends one replay or record event to a staging buffer — the one
// event-append site of core: the obsOn kernels, the reference Replayer and
// the recorder's sync all stage through it. The buffer is ingested in order
// through obs.IngestReplay once per call (per edge for the Replayer, per
// sync for the recorder, at the drain for pipeline scans), never per
// event. This file holds no other code, so any instruction attributed to
// it in an obsOff body is an obs leak.
func emit(evs *[]obs.Event, edge, aux uint64, state StateID, kind obs.EventKind) {
	*evs = append(*evs, obs.Event{Edge: edge, Aux: aux, State: int32(state), Kind: kind})
}
