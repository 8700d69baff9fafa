// Package cfg discovers dynamic basic blocks and turns a machine execution
// into a stream of block-to-block edges.
//
// The paper's most troublesome implementation issue (§4.1) was that StarDBT
// and Pin identify dynamic basic blocks differently: both start blocks at
// branch targets and end them at branch instructions, but Pin additionally
// ends blocks at "unexpected" instructions (CPUID) and at REP-prefixed
// instructions, which it expands into loops. Both disciplines are modelled
// here as a Style, and the edge stream a Runner produces is the common
// currency consumed by the DBT, the Pin-like engine, the trace selectors
// and the TEA recorder/replayer.
package cfg

import (
	"context"
	"fmt"

	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
)

// Style selects the dynamic basic-block discipline.
type Style int

const (
	// StarDBT blocks start at branch targets and end at branch instructions.
	StarDBT Style = iota
	// Pin blocks additionally end at CPUID and REP-prefixed instructions
	// (paper §4.1).
	Pin
)

func (s Style) String() string {
	if s == Pin {
		return "pin"
	}
	return "stardbt"
}

// MaxBlockLen caps the number of instructions decoded into one block; real
// translators bound block size similarly.
const MaxBlockLen = 128

// Block is a dynamic basic block: a single-entry single-exit run of
// instructions (paper Definition 1) discovered at run time from some head
// address.
type Block struct {
	// Head is the address of the first instruction; it identifies the block
	// within one Cache.
	Head uint64
	// End is the address of the last (terminating) instruction.
	End uint64
	// NumInstrs is the static instruction count of the block.
	NumInstrs int
	// Bytes is the total encoded size of the block's instructions; this is
	// what code replication pays per copy.
	Bytes uint64
	// Term is the terminating instruction.
	Term *isa.Instr
	// BackSrc precomputes whether Term, when taken, is a direct backward
	// branch (not indirect, not a call, target at or before the branch):
	// the loop back-edge test the trace selectors apply per edge, hoisted
	// to decode time so the hot paths read one flag instead of re-deriving
	// it from the terminator.
	BackSrc bool
}

// FallThrough returns the address control reaches when the terminator does
// not take its branch, and whether such an edge exists.
func (b *Block) FallThrough() (uint64, bool) {
	if b.Term.FallsThrough() {
		return b.Term.Next(), true
	}
	return 0, false
}

func (b *Block) String() string {
	return fmt.Sprintf("[0x%x..0x%x %di %dB %s]", b.Head, b.End, b.NumInstrs, b.Bytes, b.Term.Op)
}

// Cache memoizes block decoding per head address, exactly like a DBT's
// block directory.
type Cache struct {
	prog   *isa.Program
	style  Style
	blocks map[uint64]*Block
}

// NewCache creates an empty block cache over prog with the given discipline.
func NewCache(prog *isa.Program, style Style) *Cache {
	return &Cache{prog: prog, style: style, blocks: make(map[uint64]*Block)}
}

// Program returns the program the cache decodes.
func (c *Cache) Program() *isa.Program { return c.prog }

// BlockAt decodes (or returns the memoized) block starting at head.
func (c *Cache) BlockAt(head uint64) (*Block, error) {
	if b, ok := c.blocks[head]; ok {
		return b, nil
	}
	b, err := c.decode(head)
	if err != nil {
		return nil, err
	}
	c.blocks[head] = b
	return b, nil
}

// Len returns the number of decoded blocks.
func (c *Cache) Len() int { return len(c.blocks) }

func (c *Cache) decode(head uint64) (*Block, error) {
	in, ok := c.prog.At(head)
	if !ok {
		return nil, fmt.Errorf("cfg: block head 0x%x is not an instruction", head)
	}
	b := &Block{Head: head}
	for n := 0; n < MaxBlockLen; n++ {
		b.NumInstrs++
		b.Bytes += uint64(in.Size)
		b.End = in.Addr
		b.Term = in
		if c.ends(in) {
			b.sealTerm()
			return b, nil
		}
		next, ok := c.prog.At(in.Next())
		if !ok {
			// Fell off the program text: treat the last instruction as the
			// terminator; the machine will fault if control really goes there.
			b.sealTerm()
			return b, nil
		}
		in = next
	}
	b.sealTerm()
	return b, nil
}

// sealTerm derives the terminator-dependent flags once the block's extent
// is final.
func (b *Block) sealTerm() {
	t := b.Term
	b.BackSrc = !t.IsIndirect() && t.IsBranch() && !t.IsCall() && t.Target <= t.Addr
}

// ends reports whether in terminates a block under the cache's discipline.
func (c *Cache) ends(in *isa.Instr) bool {
	if in.IsBranch() {
		return true
	}
	if c.style == Pin && (in.Op == isa.CPUID || in.IsRep()) {
		return true
	}
	return false
}

// Edge is one control transfer between two dynamic blocks.
type Edge struct {
	// From is the block that just finished executing; nil for the initial
	// pseudo-edge into the program entry.
	From *Block
	// To is the block about to execute; nil on the final edge after HALT.
	To *Block
	// Taken reports, for conditional terminators, whether the branch was
	// taken; unconditional transfers report true, pure fall-through
	// (Pin-split blocks, calls' returns aside) report false.
	Taken bool
}

// Runner drives a machine block by block, producing the edge stream. It
// owns the one stop rule every guest run shares (Arm): a program that never
// halts cannot hang its driver.
type Runner struct {
	m     *cpu.Machine
	cache *Cache
	cur   *Block
	begun bool
	done  bool

	ctx      context.Context
	maxSteps uint64
	polls    uint64
	err      error
}

// pollMask batches the runner's context polls to one per 1024 edges,
// keeping the cancellation guard off the per-block hot path.
const pollMask = 1<<10 - 1

// NewRunner resets the machine and prepares a runner over it.
func NewRunner(m *cpu.Machine, style Style) *Runner {
	m.Reset()
	return &Runner{m: m, cache: NewCache(m.Program(), style), ctx: context.Background()}
}

// Arm bounds the run: Next reports ok == false once maxSteps instructions
// have retired (0 = unbounded) or, polled once every 1024 edges, once ctx
// is done; Err then reports ctx.Err(). The cap is tested before each block
// executes, so a capped run stops at or within one block past maxSteps. A
// nil ctx never cancels.
func (r *Runner) Arm(ctx context.Context, maxSteps uint64) {
	if ctx != nil {
		r.ctx = ctx
	}
	r.maxSteps = maxSteps
}

// Err reports why an armed run stopped early: ctx.Err() after a
// cancellation, nil after a halt or a step cap.
func (r *Runner) Err() error { return r.err }

// Cache exposes the runner's block cache.
func (r *Runner) Cache() *Cache { return r.cache }

// Machine exposes the underlying machine (for instruction counts).
func (r *Runner) Machine() *cpu.Machine { return r.m }

// Next advances the execution by one edge. The first call emits the
// pseudo-edge into the entry block without executing anything. Subsequent
// calls execute the current block to completion and emit the edge to the
// next block; after HALT the final edge has To == nil and ok is false for
// every later call. ok is also false once the run hits its Arm bounds.
func (r *Runner) Next() (Edge, bool, error) {
	if r.done || r.err != nil {
		return Edge{}, false, nil
	}
	if r.maxSteps > 0 && r.m.Steps() >= r.maxSteps {
		return Edge{}, false, nil
	}
	if r.polls&pollMask == 0 {
		select {
		case <-r.ctx.Done():
			r.err = r.ctx.Err()
			return Edge{}, false, nil
		default:
		}
	}
	r.polls++
	if !r.begun {
		r.begun = true
		b, err := r.cache.BlockAt(r.m.PC())
		if err != nil {
			return Edge{}, false, err
		}
		r.cur = b
		return Edge{From: nil, To: b, Taken: true}, true, nil
	}

	from := r.cur
	for i := 0; i < from.NumInstrs; i++ {
		if _, err := r.m.Step(); err != nil {
			return Edge{}, false, err
		}
	}
	if r.m.Halted() {
		r.done = true
		return Edge{From: from, To: nil}, true, nil
	}
	to, err := r.cache.BlockAt(r.m.PC())
	if err != nil {
		return Edge{}, false, err
	}
	taken := true
	if from.Term.IsCondBranch() {
		taken = to.Head == from.Term.Target
	} else if !from.Term.IsBranch() {
		// Pin-style split on CPUID/REP: pure fall-through.
		taken = false
	}
	r.cur = to
	return Edge{From: from, To: to, Taken: taken}, true, nil
}
