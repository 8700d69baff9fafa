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
	if m.Delete(1) {
		t.Error("Delete on empty tree succeeded")
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

func TestAscendOrdered(t *testing.T) {
	m := New[int](6)
	perm := rand.New(rand.NewSource(1)).Perm(500)
	for _, i := range perm {
		m.Put(uint64(i), i)
	}
	var got []uint64
	m.Ascend(func(k uint64, v int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 500 {
		t.Fatalf("Ascend visited %d keys", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Ascend out of order at %d", i)
		}
	}
	// Early termination.
	count := 0
	m.Ascend(func(k uint64, v int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early-stop Ascend visited %d", count)
	}
}

func TestFloor(t *testing.T) {
	m := New[int](4)
	for _, k := range []uint64{10, 20, 30, 40, 50} {
		m.Put(k, int(k))
	}
	cases := []struct {
		q, want uint64
		ok      bool
	}{
		{5, 0, false},
		{10, 10, true},
		{15, 10, true},
		{30, 30, true},
		{49, 40, true},
		{1000, 50, true},
	}
	for _, c := range cases {
		k, _, ok := m.Floor(c.q)
		if ok != c.ok || (ok && k != c.want) {
			t.Errorf("Floor(%d) = %d, %v; want %d, %v", c.q, k, ok, c.want, c.ok)
		}
	}
}

func TestFloorDense(t *testing.T) {
	m := New[int](4)
	for i := uint64(0); i < 300; i++ {
		m.Put(i*3, int(i))
	}
	for q := uint64(0); q < 900; q++ {
		k, _, ok := m.Floor(q)
		if !ok || k != q-q%3 {
			t.Fatalf("Floor(%d) = %d, %v; want %d", q, k, ok, q-q%3)
		}
	}
}

func TestDeleteWithRebalance(t *testing.T) {
	m := New[int](4)
	const n = 800
	for i := uint64(0); i < n; i++ {
		m.Put(i, int(i))
	}
	// Delete in a shuffled order, checking invariants as the tree shrinks.
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for step, pi := range perm {
		k := uint64(pi)
		if !m.Delete(k) {
			t.Fatalf("Delete(%d) reported missing", k)
		}
		if m.Delete(k) {
			t.Fatalf("double Delete(%d) succeeded", k)
		}
		if err := m.Check(); err != nil {
			t.Fatalf("after %d deletes: %v", step+1, err)
		}
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d after deleting everything", m.Len())
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
// the probe counter and the probe hook exactly what Get and Floor do, for
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
		m.Floor(key)
		searched := m.Probes() - before
		d1 := m.ChargeSearch()
		d2 := m.ChargeSearch()
		if m.Probes()-before != 2*searched || d1+d2 != searched {
			t.Fatalf("height %d: searches charged %d probes, ChargeSearch %d+%d", m.Height(), searched, d1, d2)
		}
		if len(hooked) != 4 || hooked[0] != d1 || hooked[1] != d2 || hooked[2] != d1 || hooked[3] != d2 {
			t.Fatalf("height %d: hook saw %v, want Get, Floor, then two charges of %d", m.Height(), hooked, d1)
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
			switch rng.Intn(3) {
			case 0:
				v := rng.Int()
				m.Put(k, v)
				ref[k] = v
			case 1:
				_, wantOK := ref[k]
				if got := m.Delete(k); got != wantOK {
					t.Logf("Delete(%d) = %v, want %v", k, got, wantOK)
					return false
				}
				delete(ref, k)
			case 2:
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
			// Same ascending content as an insert-built tree.
			ref := New[int](order)
			for i := range keys {
				ref.Put(keys[i], vals[i])
			}
			var got, want []uint64
			bulk.Ascend(func(k uint64, _ int) bool { got = append(got, k); return true })
			ref.Ascend(func(k uint64, _ int) bool { want = append(want, k); return true })
			if len(got) != len(want) {
				t.Fatalf("order=%d n=%d: Ascend lengths %d vs %d", order, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("order=%d n=%d: Ascend[%d] = %d, want %d", order, n, i, got[i], want[i])
				}
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
	for i := 0; i < 100; i++ {
		if !m.Delete(keys[i]) {
			t.Fatalf("Delete(%d) missed", keys[i])
		}
		if err := m.Check(); err != nil {
			t.Fatalf("after Delete(%d): %v", keys[i], err)
		}
	}
	if m.Len() != 500+200-100 {
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
