package btree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	m := New[int](8)
	if m.Len() != 0 || m.Height() != 1 {
		t.Errorf("Len=%d Height=%d", m.Len(), m.Height())
	}
	if _, ok := m.Get(1); ok {
		t.Error("Get on empty tree succeeded")
	}
	if err := m.Check(); err != nil {
		t.Error(err)
	}
}

func TestPutGetOverwrite(t *testing.T) {
	m := New[string](4)
	m.Put(10, "a")
	m.Put(10, "b")
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
	if v, ok := m.Get(10); !ok || v != "b" {
		t.Errorf("Get = %q, %v", v, ok)
	}
}

func TestOrderClamped(t *testing.T) {
	m := New[int](1)
	for i := uint64(0); i < 100; i++ {
		m.Put(i, int(i))
	}
	if err := m.Check(); err != nil {
		t.Error(err)
	}
}

func TestSequentialInsertAndSplit(t *testing.T) {
	m := New[int](4)
	const n = 1000
	for i := uint64(0); i < n; i++ {
		m.Put(i, int(i*2))
		if err := m.Check(); err != nil {
			t.Fatalf("after Put(%d): %v", i, err)
		}
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	if m.Height() < 3 {
		t.Errorf("Height = %d, expected deep tree at order 4", m.Height())
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := m.Get(i); !ok || v != int(i*2) {
			t.Fatalf("Get(%d) = %d, %v", i, v, ok)
		}
	}
}

func TestProbesAccumulate(t *testing.T) {
	m := New[int](4)
	for i := uint64(0); i < 100; i++ {
		m.Put(i, 1)
	}
	m.ResetProbes()
	m.Get(50)
	if m.Probes() == 0 {
		t.Error("Get did not count probes")
	}
	p := m.Probes()
	if int(p) != m.Height() {
		t.Errorf("one Get probed %d nodes; height is %d", p, m.Height())
	}
}

// TestChargeSearchMatchesSearch: charging a search without descending feeds
// the probe counter and the probe hook exactly what Get does, for
// present and absent keys, at every height a growing tree passes through.
func TestChargeSearchMatchesSearch(t *testing.T) {
	var hooked []uint64
	m := New[int](4)
	m.SetProbeHook(func(d uint64) { hooked = append(hooked, d) })
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		m.Put(rng.Uint64()%5000, i)
		key := rng.Uint64() % 6000
		hooked = hooked[:0]
		before := m.Probes()
		m.Get(key)
		searched := m.Probes() - before
		d := m.ChargeSearch()
		if m.Probes()-before != 2*searched || d != searched {
			t.Fatalf("height %d: Get charged %d probes, ChargeSearch %d", m.Height(), searched, d)
		}
		if len(hooked) != 2 || hooked[0] != d || hooked[1] != d {
			t.Fatalf("height %d: hook saw %v, want Get then a charge of %d", m.Height(), hooked, d)
		}
	}
	if m.Height() < 3 {
		t.Fatalf("tree reached height %d only; the test needs inner levels", m.Height())
	}
}

// TestQuickAgainstMap drives a random operation sequence against a
// reference map and validates full agreement plus structural invariants.
func TestQuickAgainstMap(t *testing.T) {
	f := func(seed int64, orderBits uint8) bool {
		order := 3 + int(orderBits%14)
		rng := rand.New(rand.NewSource(seed))
		m := New[int](order)
		ref := make(map[uint64]int)
		const keySpace = 200
		for op := 0; op < 600; op++ {
			k := uint64(rng.Intn(keySpace))
			switch rng.Intn(2) {
			case 0:
				v := rng.Int()
				m.Put(k, v)
				ref[k] = v
			case 1:
				want, wantOK := ref[k]
				got, ok := m.Get(k)
				if ok != wantOK || (ok && got != want) {
					t.Logf("Get(%d) = %d,%v want %d,%v", k, got, ok, want, wantOK)
					return false
				}
			}
		}
		if m.Len() != len(ref) {
			t.Logf("Len = %d, want %d", m.Len(), len(ref))
			return false
		}
		if err := m.Check(); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGet(b *testing.B) {
	m := New[int](DefaultOrder)
	const n = 1 << 14
	for i := uint64(0); i < n; i++ {
		m.Put(i*7, int(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(uint64(i%n) * 7)
	}
}

func BenchmarkPut(b *testing.B) {
	m := New[int](DefaultOrder)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(uint64(i), i)
	}
}

func TestBulkMatchesPut(t *testing.T) {
	for _, order := range []int{3, 4, 8, 16, 64} {
		for _, n := range []int{0, 1, 2, 3, 7, 15, 16, 17, 100, 1000} {
			keys := make([]uint64, n)
			vals := make([]int, n)
			for i := range keys {
				keys[i] = uint64(i)*37 + 0x8048000
				vals[i] = i
			}
			bulk := Bulk(order, keys, vals)
			if err := bulk.Check(); err != nil {
				t.Fatalf("order=%d n=%d: %v", order, n, err)
			}
			if bulk.Len() != n {
				t.Fatalf("order=%d n=%d: Len = %d", order, n, bulk.Len())
			}
			for i, k := range keys {
				if v, ok := bulk.Get(k); !ok || v != vals[i] {
					t.Fatalf("order=%d n=%d: Get(%d) = %d, %v", order, n, k, v, ok)
				}
			}
			if _, ok := bulk.Get(0xdead); ok {
				t.Fatalf("order=%d n=%d: Get on absent key succeeded", order, n)
			}
		}
	}
}

func TestBulkThenMutate(t *testing.T) {
	keys := make([]uint64, 500)
	vals := make([]int, 500)
	for i := range keys {
		keys[i] = uint64(i) * 3
		vals[i] = i
	}
	m := Bulk(8, keys, vals)
	// Inserts between and beyond the frozen keys must keep the invariants.
	for i := uint64(0); i < 200; i++ {
		m.Put(i*3+1, int(i))
		if err := m.Check(); err != nil {
			t.Fatalf("after Put(%d): %v", i*3+1, err)
		}
	}
	if m.Len() != 500+200 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestBulkUnsortedFallsBack(t *testing.T) {
	keys := []uint64{5, 1, 9, 1} // unsorted and duplicated
	vals := []int{50, 10, 90, 11}
	m := Bulk(4, keys, vals)
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (duplicate collapsed)", m.Len())
	}
	if v, ok := m.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = %d, %v; want last write 11", v, ok)
	}
}
