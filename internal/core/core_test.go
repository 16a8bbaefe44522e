package core

import (
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/stm"
	"repro/internal/thashmap"
)

func lessInt64(a, b int64) bool { return a < b }

func newTestMap(t *testing.T, cfg Config) *Map[int64, int64] {
	t.Helper()
	if cfg.Buckets == 0 {
		cfg.Buckets = 257
	}
	return New[int64, int64](lessInt64, thashmap.Hash64, cfg)
}

func TestBasicOperations(t *testing.T) {
	m := newTestMap(t, Config{})
	if _, ok := m.Lookup(7); ok {
		t.Error("Lookup on empty map reported present")
	}
	if !m.Insert(7, 70) {
		t.Error("Insert of absent key failed")
	}
	if m.Insert(7, 71) {
		t.Error("Insert of present key succeeded")
	}
	if v, ok := m.Lookup(7); !ok || v != 70 {
		t.Errorf("Lookup(7) = %d,%v want 70,true", v, ok)
	}
	if !m.Contains(7) {
		t.Error("Contains(7) = false")
	}
	if !m.Remove(7) {
		t.Error("Remove of present key failed")
	}
	if m.Remove(7) {
		t.Error("Remove of absent key succeeded")
	}
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Error(err)
	}
}

func TestPutReplaces(t *testing.T) {
	m := newTestMap(t, Config{})
	if m.Put(1, 10) {
		t.Error("first Put reported replacement")
	}
	if !m.Put(1, 20) {
		t.Error("second Put did not report replacement")
	}
	if v, _ := m.Lookup(1); v != 20 {
		t.Errorf("value after Put = %d, want 20", v)
	}
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Error(err)
	}
}

func TestPointQueries(t *testing.T) {
	m := newTestMap(t, Config{})
	for _, k := range []int64{10, 20, 30} {
		m.Insert(k, k*2)
	}
	tests := []struct {
		name string
		fn   func(int64) (int64, int64, bool)
		k    int64
		want int64
		ok   bool
	}{
		{"ceil present O(1)", m.Ceil, 20, 20, true},
		{"ceil between", m.Ceil, 11, 20, true},
		{"ceil below all", m.Ceil, 1, 10, true},
		{"ceil above all", m.Ceil, 31, 0, false},
		{"succ present O(1)", m.Succ, 20, 30, true},
		{"succ between", m.Succ, 11, 20, true},
		{"succ of last", m.Succ, 30, 0, false},
		{"floor present O(1)", m.Floor, 20, 20, true},
		{"floor between", m.Floor, 29, 20, true},
		{"floor below all", m.Floor, 1, 0, false},
		{"pred present O(1)", m.Pred, 20, 10, true},
		{"pred between", m.Pred, 29, 20, true},
		{"pred of first", m.Pred, 10, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k, v, ok := tt.fn(tt.k)
			if ok != tt.ok || (ok && k != tt.want) {
				t.Errorf("got %d,%v want %d,%v", k, ok, tt.want, tt.ok)
			}
			if ok && v != k*2 {
				t.Errorf("value %d, want %d", v, k*2)
			}
		})
	}
}

func TestPointQueriesSkipDeleted(t *testing.T) {
	// Logically deleted nodes may linger in the list while a slow-path
	// range query is active; point queries must never return them.
	m := newTestMap(t, Config{SlowOnly: true})
	for _, k := range []int64{10, 20, 30} {
		m.Insert(k, k)
	}
	// Start a slow-path range query "by hand" so removals are deferred.
	var op *rangeOp[int64, int64]
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		op = m.rqc.onRange(tx)
		return nil
	})
	m.Remove(20)
	if m.StitchedSlow() != 3 {
		t.Fatalf("expected deferred node to stay stitched, have %d nodes", m.StitchedSlow())
	}
	if k, _, ok := m.Ceil(15); !ok || k != 30 {
		t.Errorf("Ceil(15) = %d,%v want 30,true (deleted 20 skipped)", k, ok)
	}
	if k, _, ok := m.Succ(10); !ok || k != 30 {
		t.Errorf("Succ(10) = %d,%v want 30,true", k, ok)
	}
	if k, _, ok := m.Floor(25); !ok || k != 10 {
		t.Errorf("Floor(25) = %d,%v want 10,true", k, ok)
	}
	if k, _, ok := m.Pred(30); !ok || k != 10 {
		t.Errorf("Pred(30) = %d,%v want 10,true", k, ok)
	}
	if _, ok := m.Lookup(20); ok {
		t.Error("Lookup(20) found logically deleted node")
	}
	m.rqc.afterRange(m, op)
	if got := m.StitchedSlow(); got != 2 {
		t.Errorf("after afterRange: %d stitched nodes, want 2", got)
	}
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Error(err)
	}
}

func TestInsertAfterLogicalDelete(t *testing.T) {
	// Removing a key while it is pinned by a range query and then
	// re-inserting it must produce a fresh live node placed after the
	// deleted one, and lookups must see the new value.
	m := newTestMap(t, Config{SlowOnly: true})
	m.Insert(5, 50)
	var op *rangeOp[int64, int64]
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		op = m.rqc.onRange(tx)
		return nil
	})
	m.Remove(5)
	if !m.Insert(5, 51) {
		t.Fatal("re-insert after logical delete failed")
	}
	if v, ok := m.Lookup(5); !ok || v != 51 {
		t.Errorf("Lookup(5) = %d,%v want 51,true", v, ok)
	}
	if got := m.StitchedSlow(); got != 2 {
		t.Errorf("stitched = %d, want 2 (deleted + live)", got)
	}
	if err := m.CheckInvariants(CheckOptions{AllowDeleted: true}); err != nil {
		t.Error(err)
	}
	m.rqc.afterRange(m, op)
	if got := m.StitchedSlow(); got != 1 {
		t.Errorf("after cleanup stitched = %d, want 1", got)
	}
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Error(err)
	}
}

func TestRangeBasic(t *testing.T) {
	for _, cfg := range []Config{
		{},               // two-path
		{FastOnly: true}, // fast only
		{SlowOnly: true}, // slow only
	} {
		m := newTestMap(t, cfg)
		for k := int64(0); k < 100; k += 2 {
			m.Insert(k, k*10)
		}
		got := m.Range(10, 20, nil)
		want := []int64{10, 12, 14, 16, 18, 20}
		if len(got) != len(want) {
			t.Fatalf("cfg %+v: Range(10,20) returned %d pairs, want %d", cfg, len(got), len(want))
		}
		for i, p := range got {
			if p.Key != want[i] || p.Val != want[i]*10 {
				t.Errorf("pair %d = %+v, want {%d %d}", i, p, want[i], want[i]*10)
			}
		}
		if got := m.Range(1, 1, nil); len(got) != 0 {
			t.Errorf("empty Range returned %v", got)
		}
		if got := m.Range(200, 300, nil); len(got) != 0 {
			t.Errorf("out-of-universe Range returned %v", got)
		}
	}
}

func TestQuickVersusModel(t *testing.T) {
	m := newTestMap(t, Config{Buckets: 31, MaxLevel: 4})
	model := make(map[int64]int64)
	f := func(ops []uint16) bool {
		for _, op := range ops {
			k := int64(op % 48)
			switch (op / 48) % 5 {
			case 0:
				got := m.Insert(k, k*7)
				_, present := model[k]
				if got == present {
					return false
				}
				if !present {
					model[k] = k * 7
				}
			case 1:
				got := m.Remove(k)
				_, present := model[k]
				if got != present {
					return false
				}
				delete(model, k)
			case 2:
				v, ok := m.Lookup(k)
				mv, present := model[k]
				if ok != present || (ok && v != mv) {
					return false
				}
			case 3:
				gk, _, ok := m.Ceil(k)
				wk, wok := modelCeil(model, k)
				if ok != wok || (ok && gk != wk) {
					return false
				}
			case 4:
				gk, _, ok := m.Pred(k)
				wk, wok := modelPred(model, k)
				if ok != wok || (ok && gk != wk) {
					return false
				}
			}
		}
		got := m.Range(0, 47, nil)
		keys := sortedKeys(model)
		if len(got) != len(keys) {
			return false
		}
		for i, p := range got {
			if p.Key != keys[i] || p.Val != model[keys[i]] {
				return false
			}
		}
		return m.CheckInvariants(CheckOptions{}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func modelCeil(model map[int64]int64, k int64) (int64, bool) {
	best, ok := int64(0), false
	for mk := range model {
		if mk >= k && (!ok || mk < best) {
			best, ok = mk, true
		}
	}
	return best, ok
}

func modelPred(model map[int64]int64, k int64) (int64, bool) {
	best, ok := int64(0), false
	for mk := range model {
		if mk < k && (!ok || mk > best) {
			best, ok = mk, true
		}
	}
	return best, ok
}

func sortedKeys(model map[int64]int64) []int64 {
	keys := make([]int64, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func TestAtomicBatch(t *testing.T) {
	m := newTestMap(t, Config{})
	err := m.Atomic(func(op *Txn[int64, int64]) error {
		op.Insert(1, 1)
		op.Insert(2, 2)
		if v, ok := op.Lookup(1); !ok || v != 1 {
			t.Errorf("Lookup inside txn = %d,%v", v, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Contains(1) || !m.Contains(2) {
		t.Error("batch insert lost keys")
	}
	// Rollback on error must undo everything.
	rollbackErr := errSentinel{}
	err = m.Atomic(func(op *Txn[int64, int64]) error {
		op.Remove(1)
		op.Insert(3, 3)
		return rollbackErr
	})
	if err != rollbackErr {
		t.Fatalf("error = %v, want sentinel", err)
	}
	if !m.Contains(1) {
		t.Error("rollback lost key 1")
	}
	if m.Contains(3) {
		t.Error("rollback leaked key 3")
	}
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Error(err)
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "sentinel" }

func runChaos(t *testing.T, cfg Config, goroutines, iters int, universe int64, rangeLen int64) *Map[int64, int64] {
	t.Helper()
	m := newTestMap(t, cfg)
	// Prefill half the universe.
	for k := int64(0); k < universe; k += 2 {
		m.Insert(k, k)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
			var buf []Pair[int64, int64]
			for i := 0; i < iters; i++ {
				k := int64(rng.Uint64() % uint64(universe))
				switch rng.Uint64() % 10 {
				case 0, 1, 2:
					m.Insert(k, k)
				case 3, 4, 5:
					m.Remove(k)
				case 6, 7:
					if v, ok := m.Lookup(k); ok && v != k {
						t.Errorf("Lookup(%d) = %d", k, v)
					}
				case 8:
					r := k + rangeLen
					buf = m.Range(k, r, buf[:0])
					last := int64(-1)
					for _, p := range buf {
						if p.Key < k || p.Key > r {
							t.Errorf("range [%d,%d] returned out-of-range key %d", k, r, p.Key)
						}
						if p.Key <= last {
							t.Errorf("range result not strictly sorted: %d after %d", p.Key, last)
						}
						if p.Val != p.Key {
							t.Errorf("range returned wrong value %d for key %d", p.Val, p.Key)
						}
						last = p.Key
					}
				case 9:
					if ck, _, ok := m.Ceil(k); ok && ck < k {
						t.Errorf("Ceil(%d) = %d < k", k, ck)
					}
				}
			}
		}(uint64(g) + 1)
	}
	wg.Wait()
	return m
}

func TestConcurrentChaosTwoPath(t *testing.T) {
	m := runChaos(t, Config{}, 8, 3000, 512, 32)
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentChaosSlowOnly(t *testing.T) {
	m := runChaos(t, Config{SlowOnly: true}, 8, 1500, 256, 32)
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentChaosFastOnly(t *testing.T) {
	m := runChaos(t, Config{FastOnly: true}, 8, 3000, 512, 32)
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentChaosUnbuffered races removals against long slow-path
// ranges: most removals are deferred to an in-flight query, and deferred
// lists pass from finishing queries to older ones, instead of the
// unstitch at commit the short ranges of the other chaos runs mostly
// take.
func TestConcurrentChaosUnbuffered(t *testing.T) {
	m := runChaos(t, Config{SlowOnly: true}, 8, 2000, 256, 128)
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestPairInvariantUnderRanges(t *testing.T) {
	// Writers toggle pairs (k, k+half) atomically via the batch API.
	// Every range query — fast or slow — must observe the pair
	// invariant, which is the strongest practical linearizability check
	// for snapshots.
	for _, cfg := range []Config{{}, {SlowOnly: true}, {FastOnly: true}} {
		cfg := cfg
		m := newTestMap(t, cfg)
		const half = 64
		for k := int64(0); k < half; k += 2 {
			m.Insert(k, k)
			m.Insert(k+half, k)
		}
		stop := make(chan struct{})
		var writers sync.WaitGroup
		for g := 0; g < 4; g++ {
			writers.Add(1)
			go func(s uint64) {
				defer writers.Done()
				rng := rand.New(rand.NewPCG(s, s^0x5555))
				for i := 0; i < 1200; i++ {
					k := int64(rng.Uint64() % half)
					_ = m.Atomic(func(op *Txn[int64, int64]) error {
						if op.Contains(k) {
							op.Remove(k)
							op.Remove(k + half)
						} else {
							op.Insert(k, k)
							op.Insert(k+half, k)
						}
						return nil
					})
				}
			}(uint64(g) + 11)
		}
		var readers sync.WaitGroup
		for g := 0; g < 2; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				var buf []Pair[int64, int64]
				for {
					select {
					case <-stop:
						return
					default:
					}
					buf = m.Range(0, 2*half, buf[:0])
					seen := make(map[int64]bool, len(buf))
					for _, p := range buf {
						seen[p.Key] = true
					}
					for k := int64(0); k < half; k++ {
						if seen[k] != seen[k+half] {
							t.Errorf("cfg %+v: torn snapshot key %d=%v partner=%v",
								cfg, k, seen[k], seen[k+half])
							return
						}
					}
				}
			}()
		}
		writers.Wait()
		close(stop)
		readers.Wait()
		if err := m.CheckInvariants(CheckOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPerKeyLinearization(t *testing.T) {
	// successfulInserts(k) - successfulRemoves(k) must equal final
	// presence for every key.
	m := newTestMap(t, Config{})
	const keys = 16
	const goroutines = 8
	var inserts, removes [keys]int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			var li, lr [keys]int64
			rng := rand.New(rand.NewPCG(seed, seed))
			for i := 0; i < 2000; i++ {
				k := int64(rng.Uint64() % keys)
				if rng.Uint64()&1 == 0 {
					if m.Insert(k, k) {
						li[k]++
					}
				} else {
					if m.Remove(k) {
						lr[k]++
					}
				}
			}
			mu.Lock()
			for k := 0; k < keys; k++ {
				inserts[k] += li[k]
				removes[k] += lr[k]
			}
			mu.Unlock()
		}(uint64(g) + 3)
	}
	wg.Wait()
	for k := int64(0); k < keys; k++ {
		_, present := m.Lookup(k)
		balance := inserts[k] - removes[k]
		want := int64(0)
		if present {
			want = 1
		}
		if balance != want {
			t.Errorf("key %d: balance %d, present %v", k, balance, present)
		}
	}
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestDeferredReclamationDrains(t *testing.T) {
	// Slow-path queries running concurrently with removals defer
	// unstitching; once all queries finish and buffers flush, no
	// logically deleted node may remain stitched.
	m := newTestMap(t, Config{SlowOnly: true})
	const universe = 256
	for k := int64(0); k < universe; k++ {
		m.Insert(k, k)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed^0x77))
			var buf []Pair[int64, int64]
			for i := 0; i < 800; i++ {
				k := int64(rng.Uint64() % universe)
				switch rng.Uint64() % 3 {
				case 0:
					m.Remove(k)
				case 1:
					m.Insert(k, k)
				case 2:
					buf = m.Range(k, k+64, buf[:0])
				}
			}
		}(uint64(g) + 19)
	}
	wg.Wait()
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	if live, stitched := m.SizeSlow(), m.StitchedSlow(); live != stitched {
		t.Errorf("deferred nodes leaked: %d live, %d stitched", live, stitched)
	}
}

func TestRangeStatsAccounting(t *testing.T) {
	m := newTestMap(t, Config{})
	for k := int64(0); k < 64; k++ {
		m.Insert(k, k)
	}
	before := m.RangeStats()
	for i := 0; i < 10; i++ {
		m.Range(0, 63, nil)
	}
	s := m.RangeStats().Sub(before)
	if s.FastCommits+s.SlowCommits != 10 {
		t.Errorf("commits = %d fast + %d slow, want 10 total", s.FastCommits, s.SlowCommits)
	}
	if s.FastAttempts < s.FastCommits {
		t.Errorf("attempts %d < commits %d", s.FastAttempts, s.FastCommits)
	}
}
