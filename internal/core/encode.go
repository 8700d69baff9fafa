package core

import (
	"encoding/binary"
	"fmt"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/trace"
)

// Binary serialization of a TEA, the paper's third use-case: "storing trace
// shape and profiling information for reuse in future executions". The
// format stores only *state* — block identities, the in-trace transition
// structure and a per-TBB profile counter — never code, which is where the
// size savings of Table 1 come from.
//
// Layout (integers are varints; addresses are zig-zag deltas against the
// previously written address, so nearby code costs ~2 bytes each):
//
//	magic "TEA2"
//	strategy name (len, bytes)
//	trace count, total state count
//	per trace:
//	    TBB count
//	    per TBB:
//	        head-address delta
//	        instruction count, encoded byte size   (block identity check)
//	        terminator class                       (block identity check)
//	        profile counter                        (execution count, or 0)
//	    per TBB: successor count, then per successor:
//	        label delta (vs the TBB head), absolute target state id
//
// Decoding needs the original program (via a cfg.Cache using the same
// block discipline that recorded the traces) to rebuild full block
// metadata — exactly the paper's replay scenario, where the unmodified
// executable is available on the replaying system. The stored instruction
// count, byte size and terminator class cross-check that the re-discovered
// block really is the recorded one.
//
// Failure semantics: Decode treats its input as hostile. Every rejection —
// truncation, forged counts, identity mismatches against the program,
// malformed transition structure — returns a *DecodeError naming the wire
// field, the byte offset, and the reason. Decode never panics and never
// sizes an allocation from an unvalidated count.

const magic = "TEA2"

// minTBBBytes is the smallest possible wire size of one TBB record: one
// byte each for head delta, instruction count, byte size, terminator class
// and profile counter. Counts claiming more TBBs than the remaining bytes
// could hold are rejected before any allocation.
const minTBBBytes = 5

// minTraceBytes is the smallest possible wire size of one trace: a TBB
// count, one TBB record, and one successor count.
const minTraceBytes = minTBBBytes + 2

// DecodeError reports why a serialized TEA was rejected: the wire-format
// field being read, the byte offset where decoding stopped, and the reason.
// Every rejection path of Decode returns a *DecodeError; Decode never
// panics, however hostile the input.
type DecodeError struct {
	// Offset is the byte offset into the stream where decoding failed (for
	// record-level checks, the start of the offending record).
	Offset int
	// Field names the wire-format field being decoded.
	Field string
	// Reason says what was wrong with it.
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("core: decode %s at offset %d: %s", e.Field, e.Offset, e.Reason)
}

// termClass encodes the block terminator kind for decode-time validation.
func termClass(in *isa.Instr) byte {
	switch {
	case in.IsCondBranch():
		return 1
	case in.IsCall():
		return 2
	case in.IsIndirect():
		return 3 // ret or indirect jump
	case in.IsBranch():
		return 4 // direct jump or halt
	default:
		return 5 // Pin-style split (REP/CPUID) or decode fall-off
	}
}

// Encode serializes the automaton's trace set. Each TBB record keeps the
// format's profile counter, written as zero. It returns an error when the
// set is malformed (a TBB links to a TBB that is not part of the set).
func Encode(a *Automaton) ([]byte, error) {
	out := make([]byte, 0, 64+12*a.NumStates())
	out = append(out, magic...)
	set := a.set
	out = appendUvarint(out, uint64(len(set.Strategy)))
	out = append(out, set.Strategy...)
	out = appendUvarint(out, uint64(len(set.Traces)))
	// Canonical state numbering: traces in order, TBBs in order, from 1
	// (state 0 is NTE). An online-recorded automaton may have assigned its
	// ids in a different order (tree extensions arrive late), so the wire
	// format re-numbers; Decode rebuilds with the same rule.
	canon := make(map[*trace.TBB]uint64, a.NumStates())
	next := uint64(1)
	for _, t := range set.Traces {
		for _, tbb := range t.TBBs {
			canon[tbb] = next
			next++
		}
	}
	out = appendUvarint(out, next)
	prevAddr := uint64(0)
	for _, t := range set.Traces {
		out = appendUvarint(out, uint64(len(t.TBBs)))
		for _, tbb := range t.TBBs {
			out = appendZigzag(out, int64(tbb.Block.Head)-int64(prevAddr))
			prevAddr = tbb.Block.Head
			out = appendUvarint(out, uint64(tbb.Block.NumInstrs))
			out = appendUvarint(out, tbb.Block.Bytes)
			out = append(out, termClass(tbb.Block.Term))
			out = appendUvarint(out, 0) // profile counter
		}
		for _, tbb := range t.TBBs {
			out = appendUvarint(out, uint64(len(tbb.Succs)))
			for _, label := range tbb.SuccLabels() {
				out = appendZigzag(out, int64(label)-int64(tbb.Block.Head))
				succ := tbb.Succs[label]
				id, ok := canon[succ]
				if !ok {
					return nil, fmt.Errorf("core: cannot encode: %v links to %v, which is not in the set", tbb, succ)
				}
				out = appendUvarint(out, id)
			}
		}
	}
	return out, nil
}

// EncodedSize returns the serialized size in bytes (the "TEA" column of
// Table 1; trace.Set.CodeBytes is the "DBT" column). It returns 0 for an
// automaton whose set cannot be encoded.
func EncodedSize(a *Automaton) uint64 {
	data, err := Encode(a)
	if err != nil {
		return 0
	}
	return uint64(len(data))
}

// Decode reconstructs an automaton from Encode's output. Blocks are
// re-discovered from the program through cache, which must use the block
// discipline the traces were recorded under. Each TBB's profile counter is
// read and bounds-checked, then dropped. Any rejection is reported as a
// *DecodeError.
func Decode(data []byte, cache *cfg.Cache) (*Automaton, error) {
	d := &decoder{data: data}
	if string(d.take(len(magic), "magic")) != magic {
		return nil, &DecodeError{Offset: 0, Field: "magic", Reason: "bad magic"}
	}
	nameLen := d.uvarint("strategy length")
	if d.err == nil && nameLen > uint64(d.remaining()) {
		d.setErr(&DecodeError{Offset: d.pos, Field: "strategy length",
			Reason: fmt.Sprintf("claims %d bytes, %d remain", nameLen, d.remaining())})
	}
	if d.err != nil {
		return nil, d.err
	}
	strategy := string(d.take(int(nameLen), "strategy name"))
	set := trace.NewSet(strategy, cache.Program())
	nTraces := d.uvarint("trace count")
	nStates := d.uvarint("state count")
	if d.err != nil {
		return nil, d.err
	}
	// Forged counts must not size allocations or drive long loops: every
	// trace costs at least minTraceBytes on the wire and every state (TBB)
	// at least minTBBBytes, so counts beyond what the remaining bytes can
	// hold are rejected here.
	if nTraces > uint64(d.remaining())/minTraceBytes {
		return nil, &DecodeError{Offset: d.pos, Field: "trace count",
			Reason: fmt.Sprintf("claims %d traces, only %d bytes remain", nTraces, d.remaining())}
	}
	if nStates == 0 || nStates-1 > uint64(d.remaining())/minTBBBytes {
		return nil, &DecodeError{Offset: d.pos, Field: "state count",
			Reason: fmt.Sprintf("claims %d states, only %d bytes remain", nStates, d.remaining())}
	}
	prevAddr := uint64(0)
	nextState := uint64(1) // state 0 is NTE
	type pendingLink struct {
		off    int
		from   *trace.TBB
		label  uint64
		target uint64 // absolute state id
	}
	stateTBB := make(map[uint64]*trace.TBB)
	var tbbRecOff []int // record offset per TBB in stream order, for reachability errors
	var links []pendingLink

	for ti := uint64(0); ti < nTraces; ti++ {
		countOff := d.pos
		nTBBs := d.uvarint("TBB count")
		if d.err != nil {
			return nil, d.err
		}
		if nTBBs == 0 {
			return nil, &DecodeError{Offset: countOff, Field: "TBB count",
				Reason: fmt.Sprintf("trace %d has no TBBs", ti+1)}
		}
		if nTBBs > uint64(d.remaining())/minTBBBytes {
			return nil, &DecodeError{Offset: countOff, Field: "TBB count",
				Reason: fmt.Sprintf("trace %d claims %d TBBs, only %d bytes remain", ti+1, nTBBs, d.remaining())}
		}
		var tr *trace.Trace
		tbbs := make([]*trace.TBB, nTBBs)
		for i := uint64(0); i < nTBBs; i++ {
			recOff := d.pos
			delta := d.zigzag("block head delta")
			head := uint64(int64(prevAddr) + delta)
			prevAddr = head
			nInstr := d.uvarint("instruction count")
			nBytes := d.uvarint("block bytes")
			tclass := d.take(1, "terminator class")
			d.uvarint("profile counter")
			if d.err != nil {
				return nil, d.err
			}
			b, err := cache.BlockAt(head)
			if err != nil {
				return nil, &DecodeError{Offset: recOff, Field: "block head",
					Reason: fmt.Sprintf("trace %d TBB %d: %v", ti+1, i, err)}
			}
			if uint64(b.NumInstrs) != nInstr || b.Bytes != nBytes || termClass(b.Term) != tclass[0] {
				return nil, &DecodeError{Offset: recOff, Field: "block identity",
					Reason: fmt.Sprintf("trace %d TBB %d: block at 0x%x does not match recorded shape", ti+1, i, head)}
			}
			if i == 0 {
				tr, err = set.NewTrace(b)
				if err != nil {
					return nil, &DecodeError{Offset: recOff, Field: "trace entry",
						Reason: fmt.Sprintf("trace %d: %v", ti+1, err)}
				}
				tbbs[0] = tr.Head()
			} else {
				tbbs[i] = tr.Append(b)
			}
			stateTBB[nextState] = tbbs[i]
			tbbRecOff = append(tbbRecOff, recOff)
			nextState++
		}
		for i := uint64(0); i < nTBBs; i++ {
			countOff := d.pos
			nSucc := d.uvarint("successor count")
			if d.err != nil {
				return nil, d.err
			}
			// One successor costs at least a label delta and a target id.
			if nSucc > uint64(d.remaining())/2 {
				return nil, &DecodeError{Offset: countOff, Field: "successor count",
					Reason: fmt.Sprintf("trace %d TBB %d claims %d successors, only %d bytes remain", ti+1, i, nSucc, d.remaining())}
			}
			for k := uint64(0); k < nSucc; k++ {
				recOff := d.pos
				delta := d.zigzag("successor label delta")
				target := d.uvarint("successor target")
				if d.err != nil {
					return nil, d.err
				}
				label := uint64(int64(tbbs[i].Block.Head) + delta)
				links = append(links, pendingLink{recOff, tbbs[i], label, target})
			}
		}
	}
	if nextState != nStates {
		return nil, &DecodeError{Offset: d.pos, Field: "state count",
			Reason: fmt.Sprintf("header says %d states, stream has %d", nStates, nextState)}
	}
	for _, l := range links {
		succ, ok := stateTBB[l.target]
		if !ok {
			return nil, &DecodeError{Offset: l.off, Field: "transition",
				Reason: fmt.Sprintf("transition to unknown state %d", l.target)}
		}
		if succ.Trace != l.from.Trace {
			return nil, &DecodeError{Offset: l.off, Field: "transition",
				Reason: fmt.Sprintf("cross-trace transition %v -> %v", l.from, succ)}
		}
		if succ.Block.Head != l.label {
			return nil, &DecodeError{Offset: l.off, Field: "transition",
				Reason: fmt.Sprintf("label 0x%x does not match target head 0x%x", l.label, succ.Block.Head)}
		}
		if err := l.from.Link(succ); err != nil {
			return nil, &DecodeError{Offset: l.off, Field: "transition", Reason: err.Error()}
		}
	}
	// Every state must be reachable from NTE (the verifier's A-REACH). NTE
	// enters a trace only at its head and transitions never cross traces, so
	// each TBB must be reachable from its own trace's head. Without this a
	// dropped in-trace transition leaves an image that builds and passes
	// Check but carries dead states.
	first := 0 // stream index of the trace's head
	for ti, t := range set.Traces {
		if i := unreachableTBB(t); i >= 0 {
			return nil, &DecodeError{Offset: tbbRecOff[first+i], Field: "state reachability",
				Reason: fmt.Sprintf("trace %d TBB %d is unreachable from NTE: no in-trace transition leads to it", ti+1, i)}
		}
		first += len(t.TBBs)
	}
	if d.pos != len(d.data) {
		return nil, &DecodeError{Offset: d.pos, Field: "trailing bytes",
			Reason: fmt.Sprintf("%d trailing bytes", len(d.data)-d.pos)}
	}
	a := Build(set)
	if err := a.Check(); err != nil {
		return nil, &DecodeError{Offset: len(d.data), Field: "automaton", Reason: err.Error()}
	}
	return a, nil
}

// unreachableTBB returns the index of a TBB of t that no chain of in-trace
// transitions leads to from the trace's head, or -1 when every TBB is
// reachable.
func unreachableTBB(t *trace.Trace) int {
	seen := make([]bool, len(t.TBBs))
	seen[0] = true
	stack := []*trace.TBB{t.Head()}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return i
		}
	}
	return -1
}

type decoder struct {
	data []byte
	pos  int
	err  error
}

// remaining returns the unread byte count.
func (d *decoder) remaining() int { return len(d.data) - d.pos }

// setErr records the first error; later reads become no-ops.
func (d *decoder) setErr(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) take(n int, field string) []byte {
	if d.err != nil || n < 0 || d.pos+n > len(d.data) {
		d.setErr(&DecodeError{Offset: d.pos, Field: field, Reason: "truncated"})
		return []byte{0}
	}
	out := d.data[d.pos : d.pos+n]
	d.pos += n
	return out
}

func (d *decoder) uvarint(field string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.setErr(&DecodeError{Offset: d.pos, Field: field, Reason: "truncated or malformed varint"})
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) zigzag(field string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.setErr(&DecodeError{Offset: d.pos, Field: field, Reason: "truncated or malformed varint"})
		return 0
	}
	d.pos += n
	return v
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}
