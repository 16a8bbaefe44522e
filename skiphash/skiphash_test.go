package skiphash_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/linearize"
	"repro/internal/maptest"
	"repro/internal/stm"
	"repro/internal/thashmap"
	"repro/skiphash"
)

// adapter exposes a skip hash through the shared conformance interface.
type adapter struct {
	m *skiphash.Map[int64, int64]
}

func (a adapter) Lookup(k int64) (int64, bool) { return a.m.Lookup(k) }
func (a adapter) Insert(k, v int64) bool       { return a.m.Insert(k, v) }
func (a adapter) Remove(k int64) bool          { return a.m.Remove(k) }
func (a adapter) Put(k, v int64) bool          { return a.m.Put(k, v) }

func (a adapter) Range(l, r int64, buf []maptest.KV) []maptest.KV {
	pairs := a.m.Range(l, r, nil)
	for _, p := range pairs {
		buf = append(buf, maptest.KV{Key: p.Key, Val: p.Val})
	}
	return buf
}

func (a adapter) Ceil(k int64) (int64, int64, bool)  { return a.m.Ceil(k) }
func (a adapter) Floor(k int64) (int64, int64, bool) { return a.m.Floor(k) }
func (a adapter) Succ(k int64) (int64, int64, bool)  { return a.m.Succ(k) }
func (a adapter) Pred(k int64) (int64, int64, bool)  { return a.m.Pred(k) }

func (a adapter) CheckIdle() error {
	return a.m.CheckInvariants(skiphash.CheckOptions{})
}

// Close exposes the map's teardown to the churn component.
func (a adapter) Close() { a.m.Close() }

// Batch applies steps as one Atomic transaction; the body tolerates
// re-execution because each attempt overwrites the step outputs.
func (a adapter) Batch(steps []linearize.Step) {
	_ = a.m.Atomic(func(op *skiphash.Txn[int64, int64]) error {
		linearize.ApplySteps(steps, op.Insert, op.Remove, op.Lookup)
		return nil
	})
}

// InstallSTMHooks exposes the map's runtime to the linearizability
// suite's fault-injection and deterministic-schedule phases.
func (a adapter) InstallSTMHooks(h stm.Hooks) { a.m.Runtime().SetHooks(h) }

func factory(cfg skiphash.Config) maptest.Factory {
	return func() maptest.OrderedMap {
		cfg := cfg
		cfg.Buckets = 1021
		return adapter{m: skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg)}
	}
}

func TestConformanceTwoPath(t *testing.T) {
	maptest.RunAll(t, factory(skiphash.Config{}))
}

func TestConformanceFastOnly(t *testing.T) {
	maptest.RunAll(t, factory(skiphash.Config{FastOnly: true}))
}

func TestConformanceSlowOnly(t *testing.T) {
	maptest.RunAll(t, factory(skiphash.Config{SlowOnly: true}))
}

// TestConformanceTransactionalDescent runs the suite with every read and
// every descent inside the transaction. Otherwise findPreds runs only as
// the fallback of a raw descent whose pairs changed, so this keeps the
// transactional descent checked.
func TestConformanceTransactionalDescent(t *testing.T) {
	maptest.RunAll(t, factory(skiphash.Config{DisableReadFastPath: true}))
}

// TestConformanceUnbufferedRemovals runs the suite where removals are
// deferred most: a map whose every range takes the slow path, so a
// removal behind a range lands on the deferred list of the op that range
// registered, and is unstitched when the range finishes.
func TestConformanceUnbufferedRemovals(t *testing.T) {
	maptest.RunAll(t, func() maptest.OrderedMap {
		return adapter{m: skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64,
			skiphash.Config{Buckets: 4096, SlowOnly: true})}
	})
}

// TestHash64MatchesThashmap keeps the product's integer hash and the
// thashmap rung's equal, so the benchmark ladder's hash-only rung hashes
// keys exactly as the map does.
func TestHash64MatchesThashmap(t *testing.T) {
	keys := []int64{0, 1, -1, 2, 42, 1 << 31, -1 << 31, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 1000; i++ {
		keys = append(keys, rng.Int64())
	}
	for _, k := range keys {
		if got, want := skiphash.Hash64(k), thashmap.Hash64(k); got != want {
			t.Fatalf("skiphash.Hash64(%d) = %#x, thashmap.Hash64 = %#x", k, got, want)
		}
	}
}

func TestStringKeys(t *testing.T) {
	// The paper argues STM makes complex key types trivial; exercise a
	// non-integral key type through the generic constructor.
	m := skiphash.New[string, []string](
		func(a, b string) bool { return a < b },
		func(s string) uint64 {
			var h uint64 = 1469598103934665603
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * 1099511628211
			}
			return h
		},
		skiphash.Config{Buckets: 101},
	)
	words := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for _, w := range words {
		if !m.Insert(w, []string{strings.ToUpper(w)}) {
			t.Fatalf("Insert(%q) failed", w)
		}
	}
	pairs := m.Range("alpha", "delta", nil)
	want := []string{"alpha", "bravo", "charlie", "delta"}
	if len(pairs) != len(want) {
		t.Fatalf("Range = %d pairs, want %d", len(pairs), len(want))
	}
	for i, p := range pairs {
		if p.Key != want[i] || p.Val[0] != strings.ToUpper(want[i]) {
			t.Errorf("pair %d = %v", i, p)
		}
	}
	if k, _, ok := m.Succ("bravo"); !ok || k != "charlie" {
		t.Errorf("Succ(bravo) = %q,%v", k, ok)
	}
}

func ExampleNew() {
	m := skiphash.New[int64, string](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Buckets: 101})
	// Elemental operations are O(1) expected: the hash half routes
	// straight to the node.
	for i, name := range []string{"ares", "boreas", "chronos", "demeter", "eos"} {
		m.Insert(int64(i*10), name)
	}
	v, _ := m.Lookup(20)
	fmt.Println("Lookup(20) =", v)
	fmt.Println("Remove(30) =", m.Remove(30))
	// Point queries descend the skip list half only when the key is
	// absent.
	k, v, _ := m.Ceil(25)
	fmt.Printf("Ceil(25) = %d (%s)\n", k, v)
	k, v, _ = m.Pred(20)
	fmt.Printf("Pred(20) = %d (%s)\n", k, v)
	// A range query observes one atomic snapshot.
	fmt.Print("Range(0, 40):")
	for _, p := range m.Range(0, 40, nil) {
		fmt.Printf(" %d=%s", p.Key, p.Val)
	}
	fmt.Println()
	// Output:
	// Lookup(20) = chronos
	// Remove(30) = true
	// Ceil(25) = 40 (eos)
	// Pred(20) = 10 (boreas)
	// Range(0, 40): 0=ares 10=boreas 20=chronos 40=eos
}

func ExampleMap_All() {
	m := skiphash.New[int64, string](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Buckets: 101})
	m.Insert(2, "two")
	m.Insert(1, "one")
	for k, v := range m.All() {
		fmt.Println(k, v)
	}
	// Output:
	// 1 one
	// 2 two
}

// TestConformanceSharded runs the suite on the map NewSharded builds,
// which is New's.
func TestConformanceSharded(t *testing.T) {
	maptest.RunAll(t, func() maptest.OrderedMap {
		return adapter{m: skiphash.NewSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Buckets: 4096})}
	})
}

func ExampleNewSharded() {
	m := skiphash.NewSharded[int64, string](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Buckets: 1024})
	m.Insert(3, "three")
	m.Insert(1, "one")
	m.Insert(2, "two")
	for _, p := range m.Range(1, 3, nil) {
		fmt.Println(p.Key, p.Val)
	}
	// A batch commits or rolls back as a whole.
	_ = m.Atomic(func(op *skiphash.Txn[int64, string]) error {
		op.Remove(1)
		op.Insert(4, "four")
		return nil
	})
	fmt.Println(m.Contains(1))
	// Output:
	// 1 one
	// 2 two
	// 3 three
	// false
}

func ExampleMap_Atomic() {
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Buckets: 101})
	m.Insert(1, 100)
	// Move the value from key 1 to key 2 atomically.
	_ = m.Atomic(func(op *skiphash.Txn[int64, int64]) error {
		v, _ := op.Lookup(1)
		op.Remove(1)
		op.Insert(2, v)
		return nil
	})
	_, ok1 := m.Lookup(1)
	v2, ok2 := m.Lookup(2)
	fmt.Println(ok1, v2, ok2)
	// Output: false 100 true
}
