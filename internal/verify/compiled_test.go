package verify

import (
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/trace"
)

// compiledFixture builds a recorded automaton and its compiled form plus a
// clean audit snapshot the corruption tests mutate.
func compiledFixture(t *testing.T) (*core.Automaton, *core.Compiled, core.CompiledAudit) {
	t.Helper()
	set, _ := recordedSet(t, 3, "mret", 8)
	a := core.Build(set)
	c := core.Compile(a, core.ConfigGlobalLocal)
	v := c.Audit()
	r := &Report{}
	compiledStructural(r, v, a, c.Config())
	if !r.Clean() {
		t.Fatalf("fixture not clean:\n%s", r)
	}
	return a, c, v
}

// structural runs compiledStructural over a (possibly corrupted) snapshot.
func structural(a *core.Automaton, c *core.Compiled, v core.CompiledAudit) *Report {
	r := &Report{}
	compiledStructural(r, v, a, c.Config())
	r.normalize()
	return r
}

func TestCompiledOffsetRulesFire(t *testing.T) {
	a, c, v := compiledFixture(t)

	bad := v
	bad.Off = append([]uint32(nil), v.Off...)
	bad.Off[1], bad.Off[2] = bad.Off[2]+1, bad.Off[1] // non-monotone
	requireRule(t, structural(a, c, bad), "C-OFF")

	bad = v
	bad.Off = v.Off[:len(v.Off)-1] // wrong table length
	requireRule(t, structural(a, c, bad), "C-OFF")

	bad = v
	bad.Off = append([]uint32(nil), v.Off...)
	bad.Off[len(bad.Off)-1]++ // final offset past the arena
	requireRule(t, structural(a, c, bad), "C-OFF")
}

func TestCompiledSpanRulesFire(t *testing.T) {
	a, c, v := compiledFixture(t)
	if len(v.Labels) < 2 {
		t.Skip("need 2 arena entries")
	}

	bad := v
	bad.Targets = append([]core.StateID(nil), v.Targets...)
	bad.Targets[0] = core.StateID(len(v.States)) // out of range
	requireRule(t, structural(a, c, bad), "C-SPAN")

	bad = v
	bad.Labels = append([]uint64(nil), v.Labels...)
	bad.Labels[0] ^= 0x40 // label no longer matches the automaton
	requireRule(t, structural(a, c, bad), "C-SPAN")
}

func TestCompiledSlotRuleFires(t *testing.T) {
	a, c, v := compiledFixture(t)
	// Each corruption hits the first state it applies to: a slot label, a
	// row slot's kind, a link slot's target, and an in-trace slot turned
	// into an exit.
	for _, tc := range []struct {
		name    string
		corrupt func(*core.StateAudit) bool
	}{
		{"label", func(st *core.StateAudit) bool {
			if st.Lab0 == core.ImpossibleLabel {
				return false
			}
			st.Lab0 ^= 0x8
			return true
		}},
		{"link kind", func(st *core.StateAudit) bool {
			if st.Kind0 != core.AuditSlotLink {
				return false
			}
			st.Kind0 = core.AuditSlotExit
			return true
		}},
		{"link target", func(st *core.StateAudit) bool {
			if st.Kind1 != core.AuditSlotLink {
				return false
			}
			st.Tgt1++
			return true
		}},
		{"in-trace kind", func(st *core.StateAudit) bool {
			if st.Lab0 == core.ImpossibleLabel || st.Kind0 != core.AuditSlotTrace {
				return false
			}
			st.Kind0 = core.AuditSlotExit
			return true
		}},
	} {
		bad := v
		bad.States = append([]core.StateAudit(nil), v.States...)
		found := false
		for i := range bad.States {
			if tc.corrupt(&bad.States[i]) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: no state to corrupt", tc.name)
		}
		requireRule(t, structural(a, c, bad), "C-SLOT")
	}
}

func TestCompiledPlausRuleFires(t *testing.T) {
	a, c, v := compiledFixture(t)
	bad := v
	bad.States = append([]core.StateAudit(nil), v.States...)
	bad.States[1].Flags ^= core.AuditFlagIndirect
	requireRule(t, structural(a, c, bad), "C-PLAUS")
}

func TestCompiledEntryRulesFire(t *testing.T) {
	a, c, v := compiledFixture(t)

	// Fabricated key: also breaks probe reachability for the real entry.
	bad := v
	bad.Ent = append([]core.EntrySlotAudit(nil), v.Ent...)
	for i := range bad.Ent {
		if bad.Ent[i].Val >= 0 {
			bad.Ent[i].Key ^= 0x4000
			break
		}
	}
	requireRule(t, structural(a, c, bad), "C-ENT")

	// Occupancy miscount.
	bad = v
	bad.EntLen = v.EntLen + 1
	requireRule(t, structural(a, c, bad), "C-ENT")

	// Geometry: non-power-of-two table.
	bad = v
	bad.Ent = v.Ent[:len(v.Ent)-1]
	requireRule(t, structural(a, c, bad), "C-ENT")

	// Load factor: rebuild the table at the smallest power of two that
	// still fits every entry but breaks the 50% load bound.
	size, shift := 8, 61
	for size < v.EntLen {
		size <<= 1
		shift--
	}
	if 2*v.EntLen > size {
		small := core.CompiledAudit{
			Off: v.Off, Labels: v.Labels, Targets: v.Targets, States: v.States,
			Filt: v.Filt, FiltShift: v.FiltShift, LocalSize: v.LocalSize,
			Ent:     make([]core.EntrySlotAudit, size),
			EntMask: uint64(size - 1), EntShift: uint8(shift), EntLen: v.EntLen,
		}
		for i := range small.Ent {
			small.Ent[i].Val = -1
		}
		for _, e := range a.Entries() {
			i := (e.Addr * core.FibHash) >> small.EntShift
			for small.Ent[i].Val >= 0 {
				i = (i + 1) & small.EntMask
			}
			small.Ent[i] = core.EntrySlotAudit{Key: e.Addr, Val: e.State}
		}
		requireRule(t, structural(a, c, small), "C-ENT")
	}
}

func TestCompiledFilterRuleFires(t *testing.T) {
	a, c, v := compiledFixture(t)
	bad := v
	bad.Filt = make([]uint64, len(v.Filt)) // all-zero filter misses every entry
	requireRule(t, structural(a, c, bad), "C-FILT")
}

func TestCompiledLocalRuleFires(t *testing.T) {
	a, c, v := compiledFixture(t)
	bad := v
	bad.LocalSize = v.LocalSize + 1
	requireRule(t, structural(a, c, bad), "C-LOCAL")
}

// TestCompiledBisimCatchesForeignAutomaton: C-EQ is a real equivalence
// proof — handing the bisimulation a different recording's automaton (same
// program family, different seed) must produce disagreements.
func TestCompiledBisimCatchesForeignAutomaton(t *testing.T) {
	_, c, v := compiledFixture(t)
	set, _ := recordedSet(t, 11, "mret", 8)
	foreign := core.Build(set)
	r := &Report{}
	compiledBisim(r, c, foreign, v)
	requireRule(t, r, "C-EQ")
}

// TestCompiledBTreeRuleFires: a duplicated entry address collapses inside
// the tree, so the size and lookup cross-checks must catch it (unsorted
// input alone is healed by Bulk's insertion fallback).
func TestCompiledBTreeRuleFires(t *testing.T) {
	entries := []core.Entry{{Addr: 10, State: 1}, {Addr: 10, State: 2}, {Addr: 20, State: 3}}
	r := &Report{}
	compiledBTree(r, entries, 4)
	requireRule(t, r, "C-BTREE")
}

// TestCompiledSingleTransitionSlots: a state with exactly one transition
// must duplicate it into both fast slots; the verifier accepts the
// canonical form produced by Compile for every strategy.
func TestCompiledSingleTransitionSlots(t *testing.T) {
	for _, strategy := range []string{"tt", "ctt"} {
		set, _ := recordedSet(t, 5, strategy, 8)
		a := core.Build(set)
		if r := Compiled(core.Compile(a, core.ConfigGlobalNoLocal)); !r.Clean() {
			t.Errorf("%s: %s", strategy, r)
		}
	}
}

// TestCompiledEmptyAutomaton: the degenerate NTE-only automaton (no traces
// recorded) still compiles and verifies clean.
func TestCompiledEmptyAutomaton(t *testing.T) {
	_, p := recordedSet(t, 1, "mret", 8)
	set := trace.NewSet("empty", p)
	a := core.Build(set)
	if r := Automaton(a, cfg.NewCache(p, cfg.StarDBT)); !r.Clean() {
		t.Fatalf("automaton: %s", r)
	}
	if r := Compiled(core.Compile(a, core.ConfigGlobalLocal)); !r.Clean() {
		t.Fatalf("compiled: %s", r)
	}
}
