// Package maptest provides a reusable conformance, stress, and
// range-consistency suite for every ordered map in this repository: the
// skip hash itself and each of the evaluation's baselines. Implementing
// the small OrderedMap adapter buys a data structure several hundred
// checks spanning sequential semantics, concurrent linearization
// evidence, and snapshot sanity for range queries.
package maptest

import (
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/kv"
)

// KV is a key/value pair returned by range queries.
type KV = kv.KV

// OrderedMap is the minimal interface the suite exercises. Implementations
// must be safe for concurrent use.
type OrderedMap interface {
	// Lookup returns the value for k.
	Lookup(k int64) (int64, bool)
	// Insert adds (k, v) if absent, reporting whether it did.
	Insert(k, v int64) bool
	// Remove deletes k, reporting whether it was present.
	Remove(k int64) bool
	// Range appends all pairs with l <= key <= r, in key order, to buf.
	Range(l, r int64, buf []KV) []KV
}

// Queryable is implemented by maps that also support point queries; the
// suite exercises them when available.
type Queryable interface {
	Ceil(k int64) (int64, int64, bool)
	Floor(k int64) (int64, int64, bool)
	Succ(k int64) (int64, int64, bool)
	Pred(k int64) (int64, int64, bool)
}

// Checkable is implemented by maps with a quiescent invariant audit.
type Checkable interface {
	CheckIdle() error
}

// Lifecycle is implemented by maps with pooled handles and explicit
// teardown (the skip hash variants); the suite's handle-churn component
// uses it to assert that neither pool churn nor teardown leaves
// logically deleted nodes stitched.
type Lifecycle interface {
	// Close tears the map down.
	Close()
}

// Factory builds a fresh empty map for one test.
type Factory func() OrderedMap

// RunAll runs every suite component against the factory.
func RunAll(t *testing.T, newMap Factory) {
	t.Run("Sequential", func(t *testing.T) { RunSequential(t, newMap) })
	t.Run("Model", func(t *testing.T) { RunModel(t, newMap) })
	if _, ok := newMap().(Queryable); ok {
		t.Run("PointQueryModel", func(t *testing.T) { RunPointQueryModel(t, newMap) })
	}
	t.Run("ConcurrentDisjoint", func(t *testing.T) { RunConcurrentDisjoint(t, newMap) })
	t.Run("ConcurrentContended", func(t *testing.T) { RunConcurrentContended(t, newMap) })
	t.Run("RangeSanity", func(t *testing.T) { RunRangeSanity(t, newMap) })
	t.Run("RangeCountBound", func(t *testing.T) { RunRangeCountBound(t, newMap) })
	t.Run("Linearizability", func(t *testing.T) { RunLinearizability(t, newMap) })
	t.Run("HandleChurn", func(t *testing.T) { RunHandleChurn(t, newMap) })
}

// RunHandleChurn is the regression suite for the handle-lifecycle leak
// class: goroutines churn insert/remove through the map's convenience
// methods (the pooled-handle path), with GC cycles recycling the pools
// mid-run. Afterwards, and again after Close, a quiescent audit must
// find no logically-deleted node still stitched (CheckIdle runs
// the map's invariant check with AllowDeleted false). Requires
// Lifecycle.
func RunHandleChurn(t *testing.T, newMap Factory) {
	m := newMap()
	lc, ok := m.(Lifecycle)
	if !ok {
		t.Skip("map does not implement Lifecycle")
	}
	const goroutines = 8
	const iters = 3000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed^0x10fe))
			const universe = 256
			for i := 0; i < iters; i++ {
				k := int64(rng.Uint64() % universe)
				switch rng.Uint64() % 4 {
				case 0, 1:
					m.Insert(k, k)
				case 2:
					m.Remove(k)
				case 3:
					m.Lookup(k)
				}
				if i%1024 == 0 {
					// Empty the handle pools mid-churn: a handle the
					// pool drops must strand nothing.
					runtime.GC()
				}
			}
		}(uint64(g) + 1)
	}
	wg.Wait()
	checkIdle(t, m)
	lc.Close()
	if c, ok := m.(Checkable); ok {
		if err := c.CheckIdle(); err != nil {
			t.Errorf("quiescent invariant check after Close: %v", err)
		}
	}
}

// RunPointQueryModel replays random updates and checks every point query
// against a reference model; requires Queryable.
func RunPointQueryModel(t *testing.T, newMap Factory) {
	m := newMap()
	q, ok := m.(Queryable)
	if !ok {
		t.Skip("map does not implement point queries")
	}
	model := make(map[int64]int64)
	rng := rand.New(rand.NewPCG(7, 13))
	const universe = 96
	for i := 0; i < 4000; i++ {
		k := int64(rng.Uint64() % universe)
		switch rng.Uint64() % 6 {
		case 0, 1:
			if m.Insert(k, k*5) {
				model[k] = k * 5
			}
		case 2:
			if m.Remove(k) {
				delete(model, k)
			}
		case 3:
			gk, gv, gok := q.Ceil(k)
			wk, wok := modelBound(model, func(mk int64) bool { return mk >= k }, false)
			checkPoint(t, i, "Ceil", k, gk, gv, gok, wk, model[wk], wok)
		case 4:
			gk, gv, gok := q.Floor(k)
			wk, wok := modelBound(model, func(mk int64) bool { return mk <= k }, true)
			checkPoint(t, i, "Floor", k, gk, gv, gok, wk, model[wk], wok)
		case 5:
			if rng.Uint64()&1 == 0 {
				gk, gv, gok := q.Succ(k)
				wk, wok := modelBound(model, func(mk int64) bool { return mk > k }, false)
				checkPoint(t, i, "Succ", k, gk, gv, gok, wk, model[wk], wok)
			} else {
				gk, gv, gok := q.Pred(k)
				wk, wok := modelBound(model, func(mk int64) bool { return mk < k }, true)
				checkPoint(t, i, "Pred", k, gk, gv, gok, wk, model[wk], wok)
			}
		}
	}
	checkIdle(t, m)
}

// modelBound finds the smallest (or, when wantMax, largest) model key
// satisfying pred.
func modelBound(model map[int64]int64, pred func(int64) bool, wantMax bool) (int64, bool) {
	best, ok := int64(0), false
	for mk := range model {
		if !pred(mk) {
			continue
		}
		if !ok || (wantMax && mk > best) || (!wantMax && mk < best) {
			best, ok = mk, true
		}
	}
	return best, ok
}

func checkPoint(t *testing.T, step int, op string, k, gk, gv int64, gok bool, wk, wv int64, wok bool) {
	t.Helper()
	if gok != wok || (gok && (gk != wk || gv != wv)) {
		t.Fatalf("step %d: %s(%d) = %d,%d,%v want %d,%d,%v", step, op, k, gk, gv, gok, wk, wv, wok)
	}
}

// RunSequential checks single-threaded semantics on directed cases.
func RunSequential(t *testing.T, newMap Factory) {
	m := newMap()
	if _, ok := m.Lookup(3); ok {
		t.Error("empty map reports key present")
	}
	if got := m.Range(0, 100, nil); len(got) != 0 {
		t.Errorf("empty map range = %v", got)
	}
	if !m.Insert(3, 30) || m.Insert(3, 31) {
		t.Error("insert semantics broken for key 3")
	}
	if v, ok := m.Lookup(3); !ok || v != 30 {
		t.Errorf("Lookup(3) = %d,%v", v, ok)
	}
	for _, k := range []int64{1, 5, 2, 4} {
		if !m.Insert(k, k*10) {
			t.Errorf("Insert(%d) failed", k)
		}
	}
	got := m.Range(1, 5, nil)
	want := []KV{
		{Key: 1, Val: 10}, {Key: 2, Val: 20}, {Key: 3, Val: 30},
		{Key: 4, Val: 40}, {Key: 5, Val: 50},
	}
	if len(got) != len(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Range[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Sub-ranges and boundary inclusion.
	if got := m.Range(2, 4, nil); len(got) != 3 || got[0].Key != 2 || got[2].Key != 4 {
		t.Errorf("Range(2,4) = %v", got)
	}
	if got := m.Range(3, 3, nil); len(got) != 1 || got[0] != (KV{Key: 3, Val: 30}) {
		t.Errorf("point range = %v", got)
	}
	if !m.Remove(3) || m.Remove(3) {
		t.Error("remove semantics broken for key 3")
	}
	if got := m.Range(1, 5, nil); len(got) != 4 {
		t.Errorf("Range after removal = %v", got)
	}
	if q, ok := m.(Queryable); ok {
		if k, _, ok := q.Ceil(3); !ok || k != 4 {
			t.Errorf("Ceil(3) = %d,%v want 4", k, ok)
		}
		if k, _, ok := q.Floor(3); !ok || k != 2 {
			t.Errorf("Floor(3) = %d,%v want 2", k, ok)
		}
		if k, _, ok := q.Succ(4); !ok || k != 5 {
			t.Errorf("Succ(4) = %d,%v want 5", k, ok)
		}
		if k, _, ok := q.Pred(2); !ok || k != 1 {
			t.Errorf("Pred(2) = %d,%v want 1", k, ok)
		}
		if _, _, ok := q.Ceil(6); ok {
			t.Error("Ceil(6) found a key")
		}
		if _, _, ok := q.Floor(0); ok {
			t.Error("Floor(0) found a key")
		}
	}
	checkIdle(t, m)
}

// RunModel replays a long pseudo-random trace against map semantics and
// compares every answer with a reference model.
func RunModel(t *testing.T, newMap Factory) {
	m := newMap()
	model := make(map[int64]int64)
	rng := rand.New(rand.NewPCG(42, 99))
	const universe = 128
	for i := 0; i < 6000; i++ {
		k := int64(rng.Uint64() % universe)
		switch rng.Uint64() % 4 {
		case 0:
			got := m.Insert(k, k*3+1)
			_, present := model[k]
			if got == present {
				t.Fatalf("step %d: Insert(%d) = %v with present=%v", i, k, got, present)
			}
			if !present {
				model[k] = k*3 + 1
			}
		case 1:
			got := m.Remove(k)
			_, present := model[k]
			if got != present {
				t.Fatalf("step %d: Remove(%d) = %v with present=%v", i, k, got, present)
			}
			delete(model, k)
		case 2:
			v, ok := m.Lookup(k)
			mv, present := model[k]
			if ok != present || (ok && v != mv) {
				t.Fatalf("step %d: Lookup(%d) = %d,%v want %d,%v", i, k, v, ok, mv, present)
			}
		case 3:
			r := k + int64(rng.Uint64()%32)
			got := m.Range(k, r, nil)
			want := modelRange(model, k, r)
			if len(got) != len(want) {
				t.Fatalf("step %d: Range(%d,%d) = %v want %v", i, k, r, got, want)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("step %d: Range(%d,%d)[%d] = %v want %v", i, k, r, j, got[j], want[j])
				}
			}
		}
	}
	checkIdle(t, m)
}

func modelRange(model map[int64]int64, l, r int64) []KV {
	var out []KV
	for k, v := range model {
		if k >= l && k <= r {
			out = append(out, KV{Key: k, Val: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// RunConcurrentDisjoint has goroutines own disjoint key stripes; every
// operation's result is deterministic.
func RunConcurrentDisjoint(t *testing.T, newMap Factory) {
	m := newMap()
	const goroutines = 8
	const perG = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < perG; i++ {
				k := base*perG + i
				if !m.Insert(k, k) {
					t.Errorf("Insert(%d) failed", k)
				}
			}
			for i := int64(0); i < perG; i += 2 {
				k := base*perG + i
				if !m.Remove(k) {
					t.Errorf("Remove(%d) failed", k)
				}
			}
			for i := int64(0); i < perG; i++ {
				k := base*perG + i
				v, ok := m.Lookup(k)
				wantPresent := i%2 == 1
				if ok != wantPresent {
					t.Errorf("Lookup(%d) present=%v want %v", k, ok, wantPresent)
				}
				if ok && v != k {
					t.Errorf("Lookup(%d) = %d", k, v)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	got := m.Range(0, goroutines*perG, nil)
	if len(got) != goroutines*perG/2 {
		t.Errorf("final population = %d, want %d", len(got), goroutines*perG/2)
	}
	checkIdle(t, m)
}

// RunConcurrentContended hammers a small key space and verifies per-key
// linearization evidence: successful inserts minus successful removes
// equals final presence.
func RunConcurrentContended(t *testing.T, newMap Factory) {
	m := newMap()
	const keys = 12
	const goroutines = 8
	const iters = 1500
	var inserts, removes [keys]int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			var li, lr [keys]int64
			rng := rand.New(rand.NewPCG(seed, seed^0xfeed))
			for i := 0; i < iters; i++ {
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
		}(uint64(g) + 1)
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
			t.Errorf("key %d: inserts-removes = %d, present = %v", k, balance, present)
		}
	}
	checkIdle(t, m)
}

// RunRangeSanity checks structural properties of concurrent range
// results: sorted, in bounds, duplicate-free, values consistent.
func RunRangeSanity(t *testing.T, newMap Factory) {
	m := newMap()
	const universe = 512
	for k := int64(0); k < universe; k += 2 {
		m.Insert(k, k)
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			rng := rand.New(rand.NewPCG(seed, seed^0xbeef))
			for i := 0; i < 4000; i++ {
				k := int64(rng.Uint64() % universe)
				if rng.Uint64()&1 == 0 {
					m.Insert(k, k)
				} else {
					m.Remove(k)
				}
			}
		}(uint64(g) + 5)
	}
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			rng := rand.New(rand.NewPCG(seed, seed^0xcafe))
			var buf []KV
			for {
				select {
				case <-stop:
					return
				default:
				}
				l := int64(rng.Uint64() % universe)
				r := l + int64(rng.Uint64()%100)
				buf = m.Range(l, r, buf[:0])
				last := int64(-1)
				for _, p := range buf {
					if p.Key < l || p.Key > r {
						t.Errorf("Range(%d,%d) returned out-of-bounds key %d", l, r, p.Key)
						return
					}
					if p.Key <= last {
						t.Errorf("Range(%d,%d) unsorted or duplicate: %d after %d", l, r, p.Key, last)
						return
					}
					if p.Val != p.Key {
						t.Errorf("Range(%d,%d): key %d has foreign value %d", l, r, p.Key, p.Val)
						return
					}
					last = p.Key
				}
			}
		}(uint64(g) + 31)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	checkIdle(t, m)
}

// RunRangeCountBound is the snapshot-atomicity bound check: each writer
// keeps its own stripe's population constant except for a one-key window
// between a successful remove and the matching re-insert. Any range
// covering the whole universe must therefore report a population within
// #writers of the initial one. Ranges that miss concurrently relocated
// nodes (the classic non-linearizable traversal bug) fail this bound.
func RunRangeCountBound(t *testing.T, newMap Factory) {
	m := newMap()
	const writers = 4
	const stripe = 64
	const universe = writers * stripe
	for k := int64(0); k < universe; k++ {
		m.Insert(k, k)
	}
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(base int64, seed uint64) {
			defer writerWG.Done()
			rng := rand.New(rand.NewPCG(seed, seed^0x1234))
			for i := 0; i < 5000; i++ {
				k := base + int64(rng.Uint64()%stripe)
				if m.Remove(k) {
					for !m.Insert(k, k) {
						// The key cannot reappear on its own: our
						// stripe, so retry must succeed immediately.
						t.Errorf("re-insert of %d failed in owned stripe", k)
						return
					}
				}
			}
		}(int64(g)*stripe, uint64(g)+17)
	}
	var readerWG sync.WaitGroup
	for g := 0; g < 2; g++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			var buf []KV
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = m.Range(0, universe, buf[:0])
				if len(buf) < universe-writers || len(buf) > universe {
					t.Errorf("range population = %d, want within [%d, %d]",
						len(buf), universe-writers, universe)
					return
				}
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if got := m.Range(0, universe, nil); len(got) != universe {
		t.Errorf("final population = %d, want %d", len(got), universe)
	}
	checkIdle(t, m)
}

func checkIdle(t *testing.T, m OrderedMap) {
	t.Helper()
	if c, ok := m.(Checkable); ok {
		if err := c.CheckIdle(); err != nil {
			t.Errorf("quiescent invariant check: %v", err)
		}
	}
}
