package ucsim

import (
	"fmt"

	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
)

// Config assembles a core model.
type Config struct {
	// ICache and DCache geometries.
	ICache CacheConfig
	DCache CacheConfig
	// L2 is the unified second-level cache behind both; a zero Sets count
	// disables it (first-level misses then pay their full MissPenalty).
	L2 CacheConfig
	// BPredBits sizes the bimodal predictor table (2^bits counters).
	BPredBits uint
	// MispredictPenalty is the pipeline-flush cost of a wrong prediction.
	MispredictPenalty uint64
	// BaseLatency is the cycles of an ordinary instruction; MulLatency of a
	// multiply; RepPerIter of each REP iteration.
	BaseLatency uint64
	MulLatency  uint64
	RepPerIter  uint64
}

// DefaultConfig models a small early-2000s core: 16KB 2-way I-cache, 16KB
// 4-way D-cache (64-byte lines, i.e. 8 words), 12-cycle miss penalties, a
// 4K-entry bimodal predictor with a 10-cycle flush.
func DefaultConfig() Config {
	return Config{
		ICache:            CacheConfig{Sets: 128, Ways: 2, LineShift: 6, MissPenalty: 12},
		DCache:            CacheConfig{Sets: 64, Ways: 4, LineShift: 3, MissPenalty: 12},
		L2:                CacheConfig{Sets: 512, Ways: 8, LineShift: 3, MissPenalty: 80},
		BPredBits:         12,
		MispredictPenalty: 10,
		BaseLatency:       1,
		MulLatency:        3,
		RepPerIter:        1,
	}
}

// Stats aggregates one simulation (or one slice of it).
type Stats struct {
	Instrs      uint64
	Cycles      uint64
	IMisses     uint64
	DMisses     uint64
	L2Misses    uint64
	Mispredicts uint64
}

// CPI returns cycles per instruction.
func (s *Stats) CPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instrs)
}

func (s *Stats) String() string {
	return fmt.Sprintf("instrs=%d cycles=%d CPI=%.2f i$miss=%d d$miss=%d bpmiss=%d",
		s.Instrs, s.Cycles, s.CPI(), s.IMisses, s.DMisses, s.Mispredicts)
}

// Add folds other into s.
func (s *Stats) Add(o Stats) {
	s.Instrs += o.Instrs
	s.Cycles += o.Cycles
	s.IMisses += o.IMisses
	s.DMisses += o.DMisses
	s.L2Misses += o.L2Misses
	s.Mispredicts += o.Mispredicts
}

// Simulator is the timing model. It implements cpu.Observer so it can be
// attached directly to a machine; every retired instruction advances the
// cycle count.
type Simulator struct {
	cfg    Config
	icache *Cache
	dcache *Cache
	l2     *Cache
	bpred  *BranchPredictor

	total Stats
	// last holds the cost of the most recent instruction, so a caller
	// attributing cycles to TEA states can slice the stream.
	last Stats
}

var _ cpu.Observer = (*Simulator)(nil)

// New builds a simulator.
func New(cfg Config) *Simulator {
	s := &Simulator{
		cfg:    cfg,
		icache: NewCache(cfg.ICache),
		dcache: NewCache(cfg.DCache),
		bpred:  NewBranchPredictor(cfg.BPredBits),
	}
	if cfg.L2.Sets > 0 {
		s.l2 = NewCache(cfg.L2)
	}
	return s
}

// l2Fill models a first-level miss: with an L2 present, an L2 hit costs
// only the first-level penalty; an L2 miss adds the L2 penalty on top.
// addr is in L2 (word-granularity) address space.
func (s *Simulator) l2Fill(addr uint64, st *Stats) uint64 {
	if s.l2 == nil {
		return 0
	}
	if p := s.l2.Access(addr); p > 0 {
		st.L2Misses++
		return p
	}
	return 0
}

// Retire implements cpu.Observer.
func (s *Simulator) Retire(in *isa.Instr, mem []cpu.MemEvent, taken bool) {
	var st Stats
	st.Instrs = 1
	cycles := s.cfg.BaseLatency
	if in.Op == isa.MUL {
		cycles = s.cfg.MulLatency
	}

	// Instruction fetch: code lives in a separate address space from data,
	// so L2 indices are disambiguated by a high tag bit.
	if p := s.icache.Access(in.Addr); p > 0 {
		cycles += p
		st.IMisses++
		cycles += s.l2Fill(in.Addr>>3|1<<62, &st)
	}
	// Data accesses.
	for _, ev := range mem {
		if p := s.dcache.Access(uint64(ev.Addr) << 3); p > 0 {
			cycles += p
			st.DMisses++
			cycles += s.l2Fill(uint64(ev.Addr), &st)
		}
	}
	// REP iterations.
	if in.IsRep() && len(mem) > 0 {
		cycles += s.cfg.RepPerIter * uint64(len(mem))
	}
	// Branch prediction.
	if in.IsCondBranch() {
		if !s.bpred.Predict(in.Addr, taken) {
			cycles += s.cfg.MispredictPenalty
			st.Mispredicts++
		}
	}

	st.Cycles = cycles
	s.last = st
	s.total.Add(st)
}

// Last returns the cost of the most recently retired instruction.
func (s *Simulator) Last() Stats { return s.last }

// Total returns the aggregate statistics.
func (s *Simulator) Total() Stats { return s.total }
