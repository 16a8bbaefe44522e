package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/stm"
	"repro/internal/thashmap"
)

// TestStatsAllocBudget pins the map's counter sums at zero allocations:
// STMStats, RangeStats and MaintenanceStats each read their striped
// cells in place.
func TestStatsAllocBudget(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	m := newTestMap(t, Config{})
	for k := int64(0); k < 64; k++ {
		m.Insert(k, k)
	}
	for k := int64(0); k < 64; k += 2 {
		m.Remove(k)
	}
	m.Range(0, 63, nil)
	for name, read := range map[string]func(){
		"STMStats":         func() { _ = m.STMStats() },
		"RangeStats":       func() { _ = m.RangeStats() },
		"MaintenanceStats": func() { _ = m.MaintenanceStats() },
	} {
		if got := testing.AllocsPerRun(100, read); got != 0 {
			t.Errorf("%s allocates %.1f/op, budget 0", name, got)
		}
	}
}

// TestOpsAllocBudget pins what each elemental operation may take from the
// heap on a quiescent map, at GOMAXPROCS 1 and 2: nothing for reads,
// ordered queries on absent keys (their search scratch lives on the
// stack) and removals, and for the insertion of a fresh key — alone or
// as a Put's replacement — the node alone, one object at every height,
// its tower included. The frontend rows pin the Atomic batch.
func TestOpsAllocBudget(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	const keys = 10000
	t.Run("plain", func(t *testing.T) {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				plainAllocBudget(t, keys)
			})
		}
	})

	// An Atomic batch takes one object, its Txn view, beyond what its
	// body allocates.
	t.Run("frontend", func(t *testing.T) {
		m := newTestMap(t, Config{})
		for k := int64(0); k < keys; k++ {
			m.Insert(k, k)
		}
		k := int64(0)
		if got := alloctest.PerOp(keys, func() {
			_ = m.Atomic(func(op *Txn[int64, int64]) error {
				op.Lookup(k % keys)
				k += 7
				return nil
			})
		}); got > 1.01 {
			t.Errorf("read-only Atomic allocates %.3f/op, budget 1", got)
		}
		fresh := int64(keys)
		if got := alloctest.PerOp(keys, func() {
			_ = m.Atomic(func(op *Txn[int64, int64]) error {
				op.Insert(fresh, fresh)
				op.Remove(fresh)
				return nil
			})
			fresh++
		}); got > 2.01 {
			t.Errorf("Atomic insert+remove allocates %.3f/op, budget 1 + the body's 1.01", got)
		}
	})
}

// plainAllocBudget is TestOpsAllocBudget's plain rows on a fresh map of
// even keys below 2*keys.
func plainAllocBudget(t *testing.T, keys int64) {
	m := newTestMap(t, Config{})
	next := int64(0)
	insert := alloctest.PerOp(int(keys)-1, func() {
		if !m.Insert(2*next, 2*next) {
			t.Fatalf("Insert(%d) found the key present", 2*next)
		}
		next++
	})
	if insert > 1.01 {
		t.Errorf("Insert of a fresh key allocates %.3f/op, budget 1.01", insert)
	}

	k := int64(0)
	if got := testing.AllocsPerRun(1000, func() {
		if v, ok := m.Lookup(2 * (k % keys)); !ok || v != 2*(k%keys) {
			t.Fatalf("Lookup(%d) = %d, %v", 2*(k%keys), v, ok)
		}
		k += 7
	}); got != 0 {
		t.Errorf("Lookup allocates %.2f/op, budget 0", got)
	}

	// Absent odd keys between present ones: each query searches.
	for _, q := range []struct {
		name string
		fn   func(int64) (int64, int64, bool)
	}{{"Ceil", m.Ceil}, {"Floor", m.Floor}, {"Succ", m.Succ}, {"Pred", m.Pred}} {
		if got := testing.AllocsPerRun(1000, func() {
			if _, _, ok := q.fn(2*(k%(keys-1)) + 1); !ok {
				t.Fatalf("%s(%d) found nothing", q.name, 2*(k%(keys-1))+1)
			}
			k += 7
		}); got != 0 {
			t.Errorf("%s of an absent key allocates %.2f/op, budget 0", q.name, got)
		}
	}

	out := make([]Pair[int64, int64], 0, 128)
	lo := int64(0)
	if got := testing.AllocsPerRun(500, func() {
		if res := m.Range(lo, lo+199, out); len(res) != 100 {
			t.Fatalf("Range(%d, %d) returned %d pairs", lo, lo+199, len(res))
		}
		lo = (lo + 26) % (2*keys - 200)
	}); got != 0 {
		t.Errorf("Range into a sized buffer allocates %.2f/op, budget 0", got)
	}

	// A Put on a present key removes its node and inserts a fresh one.
	if got := alloctest.PerOp(int(keys), func() {
		if !m.Put(2*(k%keys), k) {
			t.Fatalf("Put(%d) replaced nothing", 2*(k%keys))
		}
		k += 7
	}); got > 1.01 {
		t.Errorf("Put on a present key allocates %.3f/op, budget 1.01", got)
	}

	// Each removal unstitches its node at commit. The first ones
	// run unmeasured: they grow the descriptor's logs to an
	// unstitch's write set.
	const warmup = 128
	victim := int64(0)
	remove := func() {
		if !m.Remove(2 * victim) {
			t.Fatalf("Remove(%d) found the key absent", 2*victim)
		}
		victim++
	}
	for i := 0; i < warmup; i++ {
		remove()
	}
	if got := testing.AllocsPerRun(int(keys)/2, remove); got != 0 {
		t.Errorf("Remove allocates %.2f/op, budget 0", got)
	}

	// Behind a registered slow-path range query older than the
	// nodes, each removal is deferred to it: one list cell per node.
	var sr *slowRange[int64, int64]
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		sr = m.beginSlowRangeTx(tx, 0)
		return nil
	})
	for i := 0; i < warmup; i++ {
		remove()
	}
	deferred := alloctest.PerOp(int(keys)/4, remove)
	if deferred > 1.01 {
		t.Errorf("Remove deferred behind a slow range allocates %.3f/op, budget 1.01", deferred)
	}
	if backlog := m.StitchedSlow() - m.SizeSlow(); backlog < int(keys)/4 {
		t.Errorf("%d removed nodes still stitched, want the %d measured removals deferred", backlog, keys/4)
	}
	sr.finish()
}

// TestHeapBytesPerKey pins what a key costs the heap once it is in the
// map: its node, tower included (about 69.4 bytes expected for
// word-sized keys and values: a 64-byte header plus 16 per tower level,
// a third of a level on average at randomHeight's p = 1/4). The map is built first, so the bucket array, whose size does
// not depend on the population, is not counted.
func TestHeapBytesPerKey(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	const keys = 1 << 17
	m := New[int64, int64](lessInt64, thashmap.Hash64, Config{})
	m.Insert(-1, -1) // sizes the descriptor's logs
	rng := rand.New(rand.NewPCG(1, 2))

	// Two collections: the second frees what the first moved into the
	// sync.Pool victim caches, which earlier tests may have filled.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	inserted := 0
	for i := 0; i < keys; i++ {
		if k := rng.Int64(); m.Insert(k, k) {
			inserted++
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)

	perKey := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(inserted)
	t.Logf("%.1f heap bytes per key over %d keys", perKey, inserted)
	if perKey > 72 {
		t.Errorf("a key costs %.1f heap bytes, budget 72", perKey)
	}
}
