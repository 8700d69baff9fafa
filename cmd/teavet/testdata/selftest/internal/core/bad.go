// Package core violates hotalloc (allocations under //tea:hotpath),
// failsem (panic and exported no-error in a guarded path — the module's
// internal/core suffix matches the default guard list), atomicmix
// (mixed plain/atomic field access) and unused (an uncalled function and a
// Config field nothing sets; cmd/use refers to everything else). The selftest baseline is empty, so
// every keyed finding is beyond it and the suite must exit 1.
package core

import "sync/atomic"

var sink []int

// Kernel allocates on its hot path.
//
//tea:hotpath
func Kernel(n int) {
	buf := make([]int, n)
	sink = append(sink, buf...)
}

// Mixed drives a field through sync/atomic and plainly.
type Mixed struct {
	n uint64
}

// Bump is the atomic side.
func (m *Mixed) Bump() {
	atomic.AddUint64(&m.n, 1)
}

// Read is the racing plain side.
func (m *Mixed) Read() uint64 {
	return m.n
}

// Reset panics and returns no error — both failsem kinds at once.
func Reset(n int) {
	if n < 0 {
		panic("negative")
	}
}

// Uncalled has no caller.
func Uncalled() {}

// RunConfig has one field nothing sets.
type RunConfig struct {
	Steps int
	Idle  bool
}
