package trace

import "github.com/lsc-tea/tea/internal/cfg"

// MRET implements Most Recently Executed Tail selection — the NET strategy
// of Dynamo [Bala et al. 2000; Duesterwald & Bala 2000] that the paper uses
// for its recording experiment (Table 3). Potential trace heads are the
// targets of taken backward branches and the targets of exits from existing
// traces; when a head's execution counter crosses the hot threshold, the
// very next executed path is recorded as a linear trace (a superblock)
// until it closes a cycle, reaches another trace, takes an indirect branch,
// or hits the length cap.
type MRET struct {
	cfg Config
	set *Set

	counters *hotTab

	recording bool
	cur       *Trace
	last      *TBB
}

// NewMRET creates an MRET selector.
func NewMRET(prog programSymbols, c Config) *MRET {
	return &MRET{
		cfg:      c.withDefaults(),
		set:      NewSet("mret", prog),
		counters: newHotTab(),
	}
}

// Name implements Strategy.
func (m *MRET) Name() string { return "mret" }

// Set implements Strategy.
func (m *MRET) Set() *Set { return m.set }

// Observe implements Strategy; a trace exit's target is a head candidate.
func (m *MRET) Observe(e cfg.Edge, exit bool) *Trace {
	if e.To == nil {
		// Program end: a trace still being recorded is finished as-is.
		if m.recording {
			return m.finish()
		}
		return nil
	}
	if m.recording {
		return m.extend(e)
	}
	if !backwardTaken(e) && !exit {
		return nil
	}
	head := e.To.Head
	if _, exists := m.set.ByEntry(head); exists {
		return nil
	}
	if m.counters.Inc(head) < m.cfg.HotThreshold {
		return nil
	}
	if !m.room() {
		return nil
	}
	t, err := m.set.NewTrace(e.To)
	if err != nil {
		return nil
	}
	m.counters.Del(head)
	m.recording = true
	m.cur = t
	m.last = t.Head()
	return nil
}

// extend appends the next executed block to the trace under construction,
// or ends the trace per the MRET stop rules.
func (m *MRET) extend(e cfg.Edge) *Trace {
	// Cycle closed back to the trace head: link and finish.
	if e.To.Head == m.cur.EntryAddr() {
		mustLink(m.last, m.cur.Head())
		return m.finish()
	}
	// Reached another trace or took a backward branch (end of loop body):
	// finish without the new block. Indirect branches are recorded through,
	// as Dynamo does — the next executed target simply becomes the next TBB.
	if _, other := m.set.ByEntry(e.To.Head); other ||
		backwardTaken(e) ||
		m.cur.Len() >= m.cfg.MaxTraceBlocks {
		return m.finish()
	}
	tbb := m.cur.Append(e.To)
	mustLink(m.last, tbb)
	m.last = tbb
	return nil
}

func (m *MRET) finish() *Trace {
	t := m.cur
	m.recording = false
	m.cur, m.last = nil, nil
	return t
}

// Recording implements Strategy.
func (m *MRET) Recording() bool { return m.recording }

// room reports whether the set may still grow (the MaxSetBlocks guard).
func (m *MRET) room() bool {
	return m.cfg.MaxSetBlocks <= 0 || m.set.NumTBBs() < m.cfg.MaxSetBlocks
}

// HotCandidate implements QuietObserver: it answers, without mutating
// anything, whether counting this head candidate would trigger recording —
// the threshold and MaxSetBlocks tests Observe applies before it mutates.
func (m *MRET) HotCandidate(head uint64) bool {
	return m.counters.Get(head)+1 >= m.cfg.HotThreshold && m.room()
}

// CountCandidate implements QuietObserver: the non-triggering arm of the
// candidate policy.
func (m *MRET) CountCandidate(head uint64) { m.counters.Inc(head) }
