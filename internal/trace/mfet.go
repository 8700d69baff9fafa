package trace

import "github.com/lsc-tea/tea/internal/cfg"

// MFET implements Most Frequently Executed Tail selection [Cifuentes & Van
// Emmerik 2000], the edge-profiling strategy the paper contrasts with MRET
// in §5. It is not part of the paper's evaluation (Table 1 covers MRET, CTT
// and TT) and is provided as an extension. MFET instruments every edge;
// when a loop-header candidate becomes hot it forms the trace along the
// *most frequently executed* successor edges rather than the most recently
// executed path, which makes it robust to unluckily-timed recording but
// costs edge counters on the whole program.
type MFET struct {
	cfg Config
	set *Set

	counters *hotTab
	// edgeFreq[from] histograms the successor heads observed from block
	// `from` (keyed by head address).
	edgeFreq map[uint64]map[uint64]uint64
	// blocks remembers each observed block by head so traces can be formed
	// from the profile alone.
	blocks map[uint64]*cfg.Block
}

// NewMFET creates an MFET selector.
func NewMFET(prog programSymbols, c Config) *MFET {
	return &MFET{
		cfg:      c.withDefaults(),
		set:      NewSet("mfet", prog),
		counters: newHotTab(),
		edgeFreq: make(map[uint64]map[uint64]uint64),
		blocks:   make(map[uint64]*cfg.Block),
	}
}

// Name implements Strategy.
func (m *MFET) Name() string { return "mfet" }

// Set implements Strategy.
func (m *MFET) Set() *Set { return m.set }

// Observe implements Strategy. MFET keeps no cursor and ignores exit.
func (m *MFET) Observe(e cfg.Edge, _ bool) *Trace {
	if e.To == nil {
		return nil
	}
	m.blocks[e.To.Head] = e.To
	if e.From != nil {
		f := m.edgeFreq[e.From.Head]
		if f == nil {
			f = make(map[uint64]uint64, 2)
			m.edgeFreq[e.From.Head] = f
		}
		f[e.To.Head]++
	}
	if !backwardTaken(e) {
		return nil
	}
	head := e.To.Head
	if _, exists := m.set.ByEntry(head); exists {
		return nil
	}
	if m.counters.Inc(head) < m.cfg.HotThreshold {
		return nil
	}
	if m.cfg.MaxSetBlocks > 0 && m.set.NumTBBs() >= m.cfg.MaxSetBlocks {
		return nil
	}
	m.counters.Del(head)
	return m.form(e.To)
}

// form materializes a linear trace from the edge profile, following the
// hottest successor edge from each block.
func (m *MFET) form(head *cfg.Block) *Trace {
	t, err := m.set.NewTrace(head)
	if err != nil {
		return nil
	}
	seen := map[uint64]*TBB{head.Head: t.Head()}
	last := t.Head()
	for t.Len() < m.cfg.MaxTraceBlocks {
		nextHead, ok := m.hottestSucc(last.Block.Head)
		if !ok {
			break
		}
		// Cycle back into the trace: link and stop.
		if prev, ok := seen[nextHead]; ok {
			mustLink(last, prev)
			break
		}
		// Reached another trace: stop at its entry.
		if _, other := m.set.ByEntry(nextHead); other {
			break
		}
		b, ok := m.blocks[nextHead]
		if !ok {
			break
		}
		tbb := t.Append(b)
		mustLink(last, tbb)
		seen[nextHead] = tbb
		last = tbb
	}
	return t
}

// hottestSucc returns the most frequent successor head of `from`, breaking
// ties toward the lower address for determinism.
func (m *MFET) hottestSucc(from uint64) (uint64, bool) {
	f := m.edgeFreq[from]
	if len(f) == 0 {
		return 0, false
	}
	var best uint64
	var bestN uint64
	found := false
	for head, n := range f {
		if !found || n > bestN || (n == bestN && head < best) {
			best, bestN, found = head, n, true
		}
	}
	return best, true
}

// Recording implements Strategy. MFET forms traces instantly from its edge
// profile, so it is never in a Creating state.
func (m *MFET) Recording() bool { return false }
