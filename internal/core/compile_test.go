package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"github.com/lsc-tea/tea/internal/asm"
	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/trace"
)

// compileTestProg exercises a loop nest with a conditional branch so the
// recorded traces have both branch-target and fall-through successors.
const compileTestProg = `
.entry main
main:
    movi ecx, 60
loop:
    addi eax, 3
    cmpi eax, 90
    jlt  low
    subi eax, 90
low:
    subi ecx, 1
    jgt  loop
    halt
`

// buildTestAutomaton records traces for the program and builds its TEA.
func buildTestAutomaton(t *testing.T) (*Automaton, *cpu.Machine) {
	t.Helper()
	p := asm.MustAssemble("compiletest", compileTestProg)
	strat, ok := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 4})
	if !ok {
		t.Fatal("mret strategy missing")
	}
	m := cpu.New(p)
	set, _, err := trace.Record(context.Background(), m, cfg.StarDBT, strat, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := Build(set)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if a.NumStates() < 3 {
		t.Fatalf("test automaton too small: %d states", a.NumStates())
	}
	return a, cpu.New(p)
}

// TestCompiledNextMatchesStateNext drives the flat transition lookup over
// every state's own labels, every other state's labels, and guaranteed
// misses, comparing against the reference State.Next.
func TestCompiledNextMatchesStateNext(t *testing.T) {
	a, _ := buildTestAutomaton(t)
	c := Compile(a, ConfigGlobalLocal)

	var labels []uint64
	for i := 0; i < a.NumStates(); i++ {
		s := a.State(StateID(i))
		labels = append(labels, s.labels...)
	}
	labels = append(labels, 0, 1, 0xdeadbeef)

	for i := 0; i < a.NumStates(); i++ {
		id := StateID(i)
		for _, label := range labels {
			wantT, wantOK := a.State(id).Next(label)
			gotT, gotOK := c.next(id, label)
			if wantT != gotT || wantOK != gotOK {
				t.Fatalf("state %d label 0x%x: compiled (%d,%v) want (%d,%v)",
					id, label, gotT, gotOK, wantT, wantOK)
			}
		}
	}
}

// TestCompiledEntryMatchesEntryFor checks the open-addressed entry table
// against the automaton's canonical entry map, hits and misses.
func TestCompiledEntryMatchesEntryFor(t *testing.T) {
	a, _ := buildTestAutomaton(t)
	c := Compile(a, ConfigGlobalLocal)

	if c.entLen != len(a.Entries()) {
		t.Fatalf("entLen = %d, want %d", c.entLen, len(a.Entries()))
	}
	for _, e := range a.Entries() {
		got, ok := c.entry(e.Addr)
		if !ok || got != e.State {
			t.Fatalf("entry(0x%x) = (%d,%v), want (%d,true)", e.Addr, got, ok, e.State)
		}
	}
	for _, miss := range []uint64{0, 1, 3, 0xfffffff0, ^uint64(0)} {
		if _, ok := a.EntryFor(miss); ok {
			continue
		}
		if got, ok := c.entry(miss); ok {
			t.Fatalf("entry(0x%x) = (%d,true), want miss", miss, got)
		}
	}
}

// TestCompiledPlausibleMatchesReference compares the precomputed desync
// predicate against plausibleSuccessor over a label sample.
func TestCompiledPlausibleMatchesReference(t *testing.T) {
	a, _ := buildTestAutomaton(t)
	c := Compile(a, ConfigGlobalLocal)

	var labels []uint64
	for i := 1; i < a.NumStates(); i++ {
		s := a.State(StateID(i))
		labels = append(labels, s.labels...)
		labels = append(labels, s.TBB.Block.Head, s.TBB.Block.End)
		if ft, ok := s.TBB.Block.FallThrough(); ok {
			labels = append(labels, ft)
		}
	}
	labels = append(labels, 0, 2, 0xdeadbeef)

	for i := 1; i < a.NumStates(); i++ {
		id := StateID(i)
		for _, label := range labels {
			want := plausibleSuccessor(a.State(id).TBB, label)
			if got := c.plausible(id, label); got != want {
				t.Fatalf("state %d label 0x%x: plausible=%v want %v", id, label, got, want)
			}
		}
	}
}

// TestAddEntryReusesCaches is the cache-invalidation satellite: AddEntry
// must invalidate the local caches without dropping them for reallocation.
// Under the generation scheme the flush is lazy — it happens in place the
// next time the cache is consulted — so the observable contract is: same
// cache object, and no stale (negative) entry survives past AddEntry.
func TestAddEntryReusesCaches(t *testing.T) {
	a, _ := buildTestAutomaton(t)
	r := NewReplayer(a, ConfigGlobalLocal)

	// Warm a cache on a real state so the slice and a cache object exist.
	var sid StateID
	for i := 1; i < a.NumStates(); i++ {
		if a.State(StateID(i)).NumTrans() > 0 {
			sid = StateID(i)
			break
		}
	}
	if sid == NTE {
		t.Fatal("no state with transitions")
	}
	r.resolve(sid, 0xabcd)
	if len(r.caches) == 0 || r.caches[sid] == nil {
		t.Fatal("cache was not materialized")
	}
	before := r.caches[sid]
	if before.labels[before.slot(0xabcd)] != 0xabcd {
		t.Fatal("cache slot not warmed")
	}

	r.AddEntry(0x999999, sid)

	if len(r.caches) == 0 {
		t.Fatal("AddEntry dropped the cache slice")
	}
	// The stale negative entry must be gone: the lookup now hits the new
	// entry (the lazy flush runs before the cache is consulted).
	if got := r.resolve(sid, 0x999999); got != sid {
		t.Fatalf("resolve after AddEntry = %d, want %d", got, sid)
	}
	after := r.caches[sid]
	if after != before {
		t.Fatal("AddEntry reallocated the cache instead of flushing it in place")
	}
	// The flush zeroed every slot; only the slot the post-AddEntry resolve
	// re-populated may be live, and it must hold the fresh entry.
	live := after.slot(0x999999)
	for i := range after.labels {
		if i == live {
			continue
		}
		if after.labels[i] != 0 || after.targets[i] != NTE {
			t.Fatalf("cache slot %d not flushed: label=0x%x target=%d", i, after.labels[i], after.targets[i])
		}
	}
	if after.labels[live] != 0x999999 || after.targets[live] != sid {
		t.Fatalf("fresh entry not cached: label=0x%x target=%d", after.labels[live], after.targets[live])
	}
}

// TestResidentBytesCountsArrays holds ResidentBytes to the sizes of the
// arrays it claims to count, unspecialized and Specialize'd, and to the
// total Layout prints.
func TestResidentBytesCountsArrays(t *testing.T) {
	a, stream := testStream(t)
	c := Compile(a, ConfigGlobalLocal)
	spec := Specialize(c, stream)
	if !spec.Specialized() {
		t.Fatal("no stride table to count")
	}
	for _, img := range []*Compiled{c, spec} {
		want := len(img.hot)*32 + len(img.cold)*ColdRecSize +
			len(img.off)*4 + len(img.labels)*8 + len(img.targets)*4 +
			len(img.ent)*16 + len(img.filt)*8 + len(img.strideProbe)*32
		for _, e := range img.stride {
			want += int(unsafe.Sizeof(e)) + 16*(len(e.Pattern)+len(e.Tile)) + 4*(len(e.States)+len(e.MissPos))
		}
		if got := img.ResidentBytes(); got != want {
			t.Fatalf("specialized=%v: ResidentBytes %d, arrays hold %d", img.Specialized(), got, want)
		}
		if line := fmt.Sprintf("(%d B;", want); !strings.Contains(img.Layout(), line) {
			t.Fatalf("Layout does not print the resident total %q:\n%s", line, img.Layout())
		}
	}
	if spec.ResidentBytes() <= c.ResidentBytes() {
		t.Fatalf("stride table adds no bytes: %d vs %d", spec.ResidentBytes(), c.ResidentBytes())
	}
}
