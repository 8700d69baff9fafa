package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/faultinject"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
)

// wire hand-crafts decoder inputs field by field, recording offsets so the
// tests can assert exactly where a rejection is reported.
type wire struct{ buf []byte }

func newWire() *wire              { return &wire{buf: []byte(magic)} }
func (w *wire) pos() int          { return len(w.buf) }
func (w *wire) uv(v uint64) *wire { w.buf = appendUvarint(w.buf, v); return w }
func (w *wire) zz(v int64) *wire  { w.buf = appendZigzag(w.buf, v); return w }
func (w *wire) raw(b ...byte) *wire {
	w.buf = append(w.buf, b...)
	return w
}
func (w *wire) str(s string) *wire {
	w.uv(uint64(len(s)))
	w.buf = append(w.buf, s...)
	return w
}

// tbb appends one TBB record for block b with the identity fields taken
// from the block itself (optionally skewed) and a given profile counter.
func (w *wire) tbb(b *cfg.Block, prevAddr uint64, dInstr int, count uint64) *wire {
	w.zz(int64(b.Head) - int64(prevAddr))
	w.uv(uint64(b.NumInstrs + dInstr))
	w.uv(b.Bytes)
	w.raw(termClass(b.Term))
	w.uv(count)
	return w
}

// TestDecodeErrorCorpus drives every rejection path of the decoder with a
// hand-built input and asserts the *DecodeError names the right wire field
// at the right offset.
func TestDecodeErrorCorpus(t *testing.T) {
	p := progs.Figure1(10, 1)
	cache := cfg.NewCache(p, cfg.StarDBT)
	b, err := cache.BlockAt(p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := cache.BlockAt(p.Labels["loop"])
	if err != nil {
		t.Fatal(err)
	}

	type tc struct {
		name       string
		data       []byte
		wantField  string
		wantOffset int // -1: don't check
	}
	var cases []tc
	add := func(name string, data []byte, field string, off int) {
		cases = append(cases, tc{name, data, field, off})
	}

	add("empty input", nil, "magic", 0)
	add("bad magic", []byte("BOGUS"), "magic", 0)
	add("short magic", []byte("TE"), "magic", 0)
	add("nothing after magic", newWire().buf, "strategy length", len(magic))

	{
		w := newWire().uv(200)
		add("strategy length over-claims", w.buf, "strategy length", w.pos())
	}
	{
		w := newWire().str("mret")
		add("missing trace count", w.buf, "trace count", w.pos())
	}
	{
		w := newWire().str("mret").uv(1)
		add("missing state count", w.buf, "state count", w.pos())
	}
	{
		w := newWire().str("mret").uv(1 << 40).uv(2)
		add("hostile trace count", w.buf, "trace count", w.pos())
	}
	{
		w := newWire().str("mret").uv(0).uv(0)
		add("zero state count", w.buf, "state count", w.pos())
	}
	{
		w := newWire().str("mret").uv(0).uv(1 << 40)
		add("hostile state count", w.buf, "state count", w.pos())
	}
	{
		w := newWire().str("mret").uv(1).uv(2)
		off := w.pos()
		w.uv(0).raw(0, 0, 0, 0, 0, 0) // filler so the trace-count guard passes
		add("zero TBB count", w.buf, "TBB count", off)
	}
	{
		w := newWire().str("mret").uv(1).uv(2)
		off := w.pos()
		w.uv(100000).raw(0, 0, 0, 0, 0)
		add("hostile TBB count", w.buf, "TBB count", off)
	}
	{
		w := newWire().str("mret").uv(1).uv(2).uv(1)
		off := w.pos()
		w.zz(0x7FFFFFF).uv(3).uv(9).raw(1).uv(0).uv(0)
		add("unknown block head", w.buf, "block head", off)
	}
	{
		w := newWire().str("mret").uv(1).uv(2).uv(1)
		off := w.pos()
		w.tbb(b, 0, +1, 0).uv(0) // instruction count off by one
		add("block identity mismatch", w.buf, "block identity", off)
	}
	{
		// Two single-TBB traces anchored at the same address: the second
		// NewTrace must be rejected.
		w := newWire().str("mret").uv(2).uv(3)
		w.uv(1).tbb(b, 0, 0, 0).uv(0)
		w.uv(1)
		off := w.pos()
		w.tbb(b, b.Head, 0, 0).uv(0)
		add("duplicate trace entry", w.buf, "trace entry", off)
	}
	{
		w := newWire().str("mret").uv(1).uv(2).uv(1).tbb(b, 0, 0, 0)
		w.uv(1)
		off := w.pos()
		w.zz(0).uv(99) // transition to a state that does not exist
		add("transition to unknown state", w.buf, "transition", off)
	}
	{
		w := newWire().str("mret").uv(1).uv(2).uv(1).tbb(b, 0, 0, 0)
		w.uv(1)
		off := w.pos()
		w.zz(1).uv(1) // label head+1 does not match the target's head
		add("transition label mismatch", w.buf, "transition", off)
	}
	{
		// Trace 1 links to trace 2's state: structurally impossible in a TEA
		// (in-trace tables only hold same-trace successors).
		w := newWire().str("mret").uv(2).uv(3)
		w.uv(1).tbb(b, 0, 0, 0)
		w.uv(1)
		off := w.pos()
		w.zz(int64(b2.Head) - int64(b.Head)).uv(2)
		w.uv(1).tbb(b2, b.Head, 0, 0).uv(0)
		add("cross-trace transition", w.buf, "transition", off)
	}
	{
		// A two-TBB trace with no in-trace transition: the second TBB is a
		// state NTE can never reach. It builds and passes Check, so only
		// the decoder's reachability check rejects it.
		w := newWire().str("mret").uv(1).uv(3).uv(2).tbb(b, 0, 0, 0)
		off := w.pos()
		w.tbb(b2, b.Head, 0, 0).uv(0).uv(0)
		add("state unreachable from NTE", w.buf, "state reachability", off)
	}
	{
		// Header promises 3 states but the stream carries one TBB. The fat
		// profile counter keeps the up-front state-count guard satisfied so
		// the end-of-stream reconciliation is what fires.
		w := newWire().str("mret").uv(1).uv(3).uv(1).tbb(b, 0, 0, 1<<40).uv(0)
		add("state count mismatch", w.buf, "state count", -1)
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Decode(c.data, cache)
			if err == nil {
				t.Fatal("decode accepted malformed input")
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("error is %T, want *DecodeError: %v", err, err)
			}
			if de.Field != c.wantField {
				t.Errorf("field = %q, want %q (%v)", de.Field, c.wantField, de)
			}
			if c.wantOffset >= 0 && de.Offset != c.wantOffset {
				t.Errorf("offset = %d, want %d (%v)", de.Offset, c.wantOffset, de)
			}
			if !strings.Contains(de.Error(), de.Field) ||
				!strings.Contains(de.Error(), fmt.Sprintf("%d", de.Offset)) {
				t.Errorf("Error() %q does not mention field and offset", de.Error())
			}
		})
	}
}

// TestDecodeErrorTrailing covers the trailing-bytes rejection, which needs
// a fully valid stream as its prefix.
func TestDecodeErrorTrailing(t *testing.T) {
	p := progs.Figure2(60, 200)
	cache := cfg.NewCache(p, cfg.StarDBT)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 30})
	data := mustEncode(t, Build(set))

	_, err := Decode(append(append([]byte{}, data...), 0xAB), cache)
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("error is %T, want *DecodeError: %v", err, err)
	}
	if de.Field != "trailing bytes" || de.Offset != len(data) {
		t.Errorf("got %v, want trailing bytes at %d", de, len(data))
	}
}

// TestDecodeEveryPrefixIsDecodeError: every strict prefix of a valid
// stream is rejected with a *DecodeError whose offset lies inside the
// prefix — no wrapped foreign errors, no panics, no silent acceptance of
// a shorter automaton.
func TestDecodeEveryPrefixIsDecodeError(t *testing.T) {
	p := progs.Figure2(60, 200)
	cache := cfg.NewCache(p, cfg.StarDBT)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 30})
	data := mustEncode(t, Build(set))

	for k := 0; k < len(data); k++ {
		_, err := Decode(data[:k], cache)
		if err == nil {
			t.Fatalf("prefix %d/%d accepted", k, len(data))
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("prefix %d: error is %T, want *DecodeError: %v", k, err, err)
		}
		if de.Offset < 0 || de.Offset > k {
			t.Fatalf("prefix %d: offset %d out of range", k, de.Offset)
		}
	}
}

// TestDecodeFaultinjectMutants: deterministic byte-level mutants either
// decode to a consistent automaton or fail with a *DecodeError — the
// tentpole contract, checked across all three fault classes.
func TestDecodeFaultinjectMutants(t *testing.T) {
	p := progs.Figure2(60, 200)
	cache := cfg.NewCache(p, cfg.StarDBT)
	set := recordSet(t, p, "mret", trace.Config{HotThreshold: 30})
	data := mustEncode(t, Build(set))

	for seed := int64(1); seed <= 8; seed++ {
		j := faultinject.New(seed)
		for i, mut := range [][]byte{
			j.Truncate(data),
			j.FlipBits(data, 1),
			j.FlipBits(data, 8),
			j.CorruptVarint(data),
			j.Mutate(data),
		} {
			a, err := Decode(mut, cache)
			if err != nil {
				var de *DecodeError
				if !errors.As(err, &de) {
					t.Fatalf("seed %d mutant %d: %T is not *DecodeError: %v", seed, i, err, err)
				}
				continue
			}
			if cerr := a.Check(); cerr != nil {
				t.Fatalf("seed %d mutant %d: accepted automaton fails Check: %v", seed, i, cerr)
			}
		}
	}
}

// TestEncodeDecodeCleanProperty: Decode(Encode(a)) succeeds and round-trips
// byte-identically for every strategy — the positive side of the corpus.
func TestEncodeDecodeCleanProperty(t *testing.T) {
	p := progs.Figure2(60, 200)
	cache := cfg.NewCache(p, cfg.StarDBT)
	for _, strategy := range []string{"mret", "tt", "ctt", "mfet"} {
		set := recordSet(t, p, strategy, trace.Config{HotThreshold: 20})
		a := Build(set)
		data, err := Encode(a)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		back, err := Decode(data, cache)
		if err != nil {
			t.Fatalf("%s: clean stream rejected: %v", strategy, err)
		}
		if string(mustEncode(t, back)) != string(data) {
			t.Errorf("%s: round trip not byte-identical", strategy)
		}
	}
}

// TestEncodeRejectsForeignLink: an automaton whose set links outside
// itself is reported as an encode error, not a panic (the former
// canon-miss panic).
func TestEncodeRejectsForeignLink(t *testing.T) {
	p := progs.Figure1(10, 1)
	cache := cfg.NewCache(p, cfg.StarDBT)
	b, _ := cache.BlockAt(p.Entry)
	b2, _ := cache.BlockAt(p.Labels["loop"])

	set := trace.NewSet("mret", p)
	tr, err := set.NewTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	tbb := tr.Append(b2)
	if err := tr.Head().Link(tbb); err != nil {
		t.Fatal(err)
	}

	// Graft a TBB from a different set into Succs, simulating a corrupted
	// in-memory set whose link escapes the canonical numbering.
	foreign := trace.NewSet("mret", p)
	ftr, err := foreign.NewTrace(b2)
	if err != nil {
		t.Fatal(err)
	}
	tr.Head().Succs[0x12345] = ftr.Head()

	if _, err := Encode(Build(set)); err == nil {
		t.Error("Encode accepted a set linking to a TBB outside itself")
	}
}
