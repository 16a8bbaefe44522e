package core

import (
	"math/rand/v2"
	"sync"
	"testing"
)

func TestAscendVisitsAllInOrder(t *testing.T) {
	m := newTestMap(t, Config{})
	const n = 200 // spans several chunks
	for k := int64(0); k < n; k++ {
		m.Insert(k, k*2)
	}
	var got []int64
	m.AscendFrom(0, func(k, v int64) bool {
		if v != k*2 {
			t.Errorf("key %d has value %d", k, v)
		}
		got = append(got, k)
		return true
	})
	if len(got) != n {
		t.Fatalf("visited %d keys, want %d", len(got), n)
	}
	for i, k := range got {
		if k != int64(i) {
			t.Fatalf("position %d holds key %d", i, k)
		}
	}
}

func TestAscendFromMidAndEarlyStop(t *testing.T) {
	m := newTestMap(t, Config{})
	for k := int64(0); k < 100; k += 2 {
		m.Insert(k, k)
	}
	var got []int64
	m.AscendFrom(31, func(k, v int64) bool {
		got = append(got, k)
		return len(got) < 5
	})
	want := []int64{32, 34, 36, 38, 40}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestAllRangeOverFunc(t *testing.T) {
	m := newTestMap(t, Config{})
	for k := int64(5); k > 0; k-- {
		m.Insert(k, k)
	}
	var sum int64
	for k, v := range m.All() {
		if k != v {
			t.Errorf("pair %d=%d", k, v)
		}
		sum += k
	}
	if sum != 15 {
		t.Errorf("sum = %d, want 15", sum)
	}
}

func TestAscendEmptyMap(t *testing.T) {
	m := newTestMap(t, Config{})
	calls := 0
	m.AscendFrom(0, func(k, v int64) bool {
		calls++
		return true
	})
	if calls != 0 {
		t.Errorf("callback invoked %d times on empty map", calls)
	}
}

func TestAscendSkipsDeletedChunkBoundaries(t *testing.T) {
	// Delete a stretch wider than a chunk; iteration must jump it.
	m := newTestMap(t, Config{})
	for k := int64(0); k < 300; k++ {
		m.Insert(k, k)
	}
	// A slow range in flight keeps the removed nodes stitched.
	op := startRange(m)
	defer m.rqc.afterRange(m, op)
	for k := int64(60); k < 200; k++ {
		m.Remove(k)
	}
	count := 0
	last := int64(-1)
	m.AscendFrom(0, func(k, v int64) bool {
		if k >= 60 && k < 200 {
			t.Errorf("visited deleted key %d", k)
		}
		if k <= last {
			t.Errorf("iteration went backwards: %d after %d", k, last)
		}
		last = k
		count++
		return true
	})
	if count != 160 {
		t.Errorf("visited %d keys, want 160", count)
	}
}

func TestAscendUnderConcurrentUpdates(t *testing.T) {
	// Weak consistency contract: iteration must stay sorted and
	// duplicate-free even while the map churns.
	m := newTestMap(t, Config{})
	const universe = 2048
	for k := int64(0); k < universe; k += 2 {
		m.Insert(k, k)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 1))
			for {
				select {
				case <-done:
					return
				default:
				}
				k := int64(rng.Uint64() % universe)
				if rng.Uint64()&1 == 0 {
					m.Insert(k, k)
				} else {
					m.Remove(k)
				}
			}
		}(uint64(g) + 1)
	}
	for i := 0; i < 50; i++ {
		last := int64(-1)
		m.Ascend(func(k, v int64) bool {
			if k <= last {
				t.Errorf("iteration unsorted or duplicated: %d after %d", k, last)
				return false
			}
			if v != k {
				t.Errorf("key %d carries foreign value %d", k, v)
				return false
			}
			last = k
			return true
		})
	}
	close(done)
	wg.Wait()
}

func TestDescendVisitsAllInReverse(t *testing.T) {
	m := newTestMap(t, Config{})
	const n = 200
	for k := int64(0); k < n; k++ {
		m.Insert(k, k*2)
	}
	var got []int64
	m.DescendFrom(n, func(k, v int64) bool {
		if v != k*2 {
			t.Errorf("key %d has value %d", k, v)
		}
		got = append(got, k)
		return true
	})
	if len(got) != n {
		t.Fatalf("visited %d keys, want %d", len(got), n)
	}
	for i, k := range got {
		if k != int64(n-1-i) {
			t.Fatalf("position %d holds key %d, want %d", i, k, n-1-i)
		}
	}
}

func TestDescendFromMidInclusive(t *testing.T) {
	m := newTestMap(t, Config{})
	for k := int64(0); k < 100; k += 2 {
		m.Insert(k, k)
	}
	var got []int64
	m.DescendFrom(30, func(k, v int64) bool {
		got = append(got, k)
		return len(got) < 4
	})
	want := []int64{30, 28, 26, 24}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Odd starting point lands between keys.
	got = got[:0]
	m.DescendFrom(31, func(k, v int64) bool {
		got = append(got, k)
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != 30 || got[1] != 28 {
		t.Errorf("DescendFrom(31) = %v, want [30 28]", got)
	}
}

func TestBackwardRangeOverFunc(t *testing.T) {
	m := newTestMap(t, Config{})
	for k := int64(1); k <= 5; k++ {
		m.Insert(k, k)
	}
	var got []int64
	for k := range m.Backward() {
		got = append(got, k)
	}
	want := []int64{5, 4, 3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Backward() = %v, want %v", got, want)
		}
	}
}

func TestDescendSkipsDeletedAndEmpty(t *testing.T) {
	m := newTestMap(t, Config{})
	calls := 0
	m.DescendFrom(100, func(k, v int64) bool { calls++; return true })
	if calls != 0 {
		t.Errorf("callback ran %d times on empty map", calls)
	}
	for k := int64(0); k < 300; k++ {
		m.Insert(k, k)
	}
	// A slow range in flight keeps the removed nodes stitched.
	op := startRange(m)
	defer m.rqc.afterRange(m, op)
	for k := int64(100); k < 250; k++ {
		m.Remove(k)
	}
	last := int64(300)
	count := 0
	m.DescendFrom(299, func(k, v int64) bool {
		if k >= 100 && k < 250 {
			t.Errorf("visited deleted key %d", k)
		}
		if k >= last {
			t.Errorf("descend went forwards: %d after %d", k, last)
		}
		last = k
		count++
		return true
	})
	if count != 150 {
		t.Errorf("visited %d keys, want 150", count)
	}
}
