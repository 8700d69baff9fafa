package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestEntryIndexAgreement drives all three containers with the same random
// operation sequence and requires identical answers.
func TestEntryIndexAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		indexes := []EntryIndex{
			newEntryIndex(LookupConfig{Global: GlobalList}.withDefaults()),
			newEntryIndex(LookupConfig{Global: GlobalBTree}.withDefaults()),
			newEntryIndex(LookupConfig{Global: GlobalHash}.withDefaults()),
		}
		ref := make(map[uint64]StateID)
		for op := 0; op < 300; op++ {
			addr := uint64(rng.Intn(64))*8 + 0x1000
			if rng.Intn(2) == 0 {
				st := StateID(rng.Intn(100) + 1)
				ref[addr] = st
				for _, ix := range indexes {
					ix.Insert(addr, st)
				}
			} else {
				want, wantOK := ref[addr]
				for _, ix := range indexes {
					got, ok := ix.Lookup(addr)
					if ok != wantOK || (ok && got != want) {
						t.Logf("index %T: Lookup(%#x) = %v,%v want %v,%v", ix, addr, got, ok, want, wantOK)
						return false
					}
				}
			}
		}
		for _, ix := range indexes {
			if ix.Len() != len(ref) {
				t.Logf("index %T: Len = %d, want %d", ix, ix.Len(), len(ref))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestIndexProbeReset(t *testing.T) {
	for _, k := range []GlobalKind{GlobalList, GlobalBTree, GlobalHash} {
		ix := newEntryIndex(LookupConfig{Global: k}.withDefaults())
		for i := uint64(1); i <= 32; i++ {
			ix.Insert(i*16, StateID(i))
		}
		ix.ResetProbes()
		ix.Lookup(16)
		if ix.Probes() == 0 {
			t.Errorf("%v: lookup counted no probes", k)
		}
		ix.ResetProbes()
		if ix.Probes() != 0 {
			t.Errorf("%v: reset did not zero probes", k)
		}
	}
}

func TestGlobalKindStrings(t *testing.T) {
	cases := map[GlobalKind]string{
		GlobalList:     "list",
		GlobalBTree:    "btree",
		GlobalHash:     "hash",
		GlobalKind(99): "global?99",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestLocalCacheBasics(t *testing.T) {
	c := newLocalCache(4)
	if _, ok := c.get(0x1000); ok {
		t.Error("empty cache hit")
	}
	c.put(0x1000, 7)
	if s, ok := c.get(0x1000); !ok || s != 7 {
		t.Error("cache miss after put")
	}
	// Negative results are cacheable.
	c.put(0x2000, NTE)
	if s, ok := c.get(0x2000); !ok || s != NTE {
		t.Error("negative entry not cached")
	}
	// Conflicting labels evict (direct-mapped): two labels in the same slot.
	a := uint64(0x1000)
	b := a + uint64(len(c.labels))<<1 // same slot by construction
	if c.slot(a) != c.slot(b) {
		t.Skip("slot function changed; conflict pair invalid")
	}
	c.put(a, 1)
	c.put(b, 2)
	if _, ok := c.get(a); ok {
		t.Error("evicted entry still present")
	}
	if s, ok := c.get(b); !ok || s != 2 {
		t.Error("newest entry lost")
	}
}
