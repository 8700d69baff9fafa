package trace

// QuietObserver is the contract the decoupled record pipeline's drain
// needs: a strategy whose steady-state (no trace being recorded, no
// automaton mutation) reaction to a scanned chunk is fully described by its
// head-candidate list. The drain replays the candidate policy itself —
// CountCandidate for the cold ones, a handoff back to the sequential
// recorder at the first HotCandidate — so a quiet chunk never touches the
// strategy's per-edge path at all. Such a strategy keeps no cursor of its
// own: it learns trace exits from the TEA transition (Strategy.Observe's
// exit), which the scan derives the same way. Strategies that cannot
// express this (their quiet scan has other side effects) simply don't
// implement it, and the pipeline degrades to sequential chunk processing.
type QuietObserver interface {
	// HotCandidate reports, without side effects, whether counting this head
	// would trigger recording (the decide-before-mutate threshold test).
	HotCandidate(head uint64) bool
	// CountCandidate applies the non-triggering arm: one hotness increment.
	CountCandidate(head uint64)
}
