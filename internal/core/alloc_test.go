package core

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/stm"
	"repro/internal/thashmap"
)

// TestOpsAllocBudget pins what each elemental operation may take from the
// heap on a quiescent map: nothing for reads and removals, and for the
// insertion of a fresh key the node alone — one object at every height,
// its tower included. The frontend rows pin the pooled convenience
// methods and the Atomic batch.
func TestOpsAllocBudget(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	const keys = 10000
	t.Run("plain", func(t *testing.T) {
		m := newTestMap(t, Config{})
		h := m.NewHandle()
		defer h.Close()

		next := int64(0)
		insert := alloctest.PerOp(keys-1, func() {
			if !h.Insert(next, next) {
				t.Fatalf("Insert(%d) found the key present", next)
			}
			next++
		})
		if insert > 1.01 {
			t.Errorf("Insert of a fresh key allocates %.3f/op, budget 1.01", insert)
		}

		k := int64(0)
		if got := testing.AllocsPerRun(1000, func() {
			if v, ok := h.Lookup(k % keys); !ok || v != k%keys {
				t.Fatalf("Lookup(%d) = %d, %v", k%keys, v, ok)
			}
			k += 7
		}); got != 0 {
			t.Errorf("Lookup allocates %.2f/op, budget 0", got)
		}

		out := make([]Pair[int64, int64], 0, 128)
		lo := int64(0)
		if got := testing.AllocsPerRun(500, func() {
			if res := h.Range(lo, lo+99, out); len(res) != 100 {
				t.Fatalf("Range(%d, %d) returned %d pairs", lo, lo+99, len(res))
			}
			lo = (lo + 13) % (keys - 100)
		}); got != 0 {
			t.Errorf("Range into a sized buffer allocates %.2f/op, budget 0", got)
		}

		// Each removal unstitches its node at commit. The first ones
		// run unmeasured: they grow the descriptor's logs to an
		// unstitch's write set.
		const warmup = 128
		victim := int64(0)
		remove := func() {
			if !h.Remove(victim) {
				t.Fatalf("Remove(%d) found the key absent", victim)
			}
			victim++
		}
		for i := 0; i < warmup; i++ {
			remove()
		}
		if got := testing.AllocsPerRun(keys/2, remove); got != 0 {
			t.Errorf("Remove allocates %.2f/op, budget 0", got)
		}

		// Behind a registered slow-path range query older than the
		// nodes, each removal is deferred to it: one list cell per node.
		var sr *slowRange[int64, int64]
		_ = m.rt.Atomic(func(tx *stm.Tx) error {
			sr = m.beginSlowRangeTx(tx, h, 0)
			return nil
		})
		for i := 0; i < warmup; i++ {
			remove()
		}
		deferred := alloctest.PerOp(keys/4, remove)
		if deferred > 1.01 {
			t.Errorf("Remove deferred behind a slow range allocates %.3f/op, budget 1.01", deferred)
		}
		if backlog := m.StitchedSlow() - m.SizeSlow(); backlog < keys/4 {
			t.Errorf("%d removed nodes still stitched, want the %d measured removals deferred", backlog, keys/4)
		}
		sr.finish()
	})

	// The map's pooled convenience methods add nothing to the handle's
	// reads and warm-buffer ranges, and an Atomic batch takes one object,
	// its Txn view, beyond what its body allocates.
	t.Run("frontend", func(t *testing.T) {
		m := newTestMap(t, Config{})
		h := m.NewHandle()
		defer h.Close()
		for k := int64(0); k < keys; k++ {
			h.Insert(k, k)
		}

		k := int64(0)
		if got := testing.AllocsPerRun(1000, func() {
			if v, ok := m.Lookup(k % keys); !ok || v != k%keys {
				t.Fatalf("Lookup(%d) = %d, %v", k%keys, v, ok)
			}
			k += 7
		}); got != 0 {
			t.Errorf("pooled Lookup allocates %.2f/op, budget 0", got)
		}

		out := make([]Pair[int64, int64], 0, 128)
		lo := int64(0)
		scan := func() {
			if res := m.Range(lo, lo+99, out); len(res) != 100 {
				t.Fatalf("Range(%d, %d) returned %d pairs", lo, lo+99, len(res))
			}
			lo = (lo + 13) % (keys - 100)
		}
		scan()
		if got := testing.AllocsPerRun(500, scan); got != 0 {
			t.Errorf("pooled Range into a sized buffer allocates %.2f/op, budget 0", got)
		}

		if got := alloctest.PerOp(keys, func() {
			_ = h.Atomic(func(op *Txn[int64, int64]) error {
				op.Lookup(k % keys)
				k += 7
				return nil
			})
		}); got > 1.01 {
			t.Errorf("read-only Atomic allocates %.3f/op, budget 1", got)
		}
		fresh := int64(keys)
		if got := alloctest.PerOp(keys, func() {
			_ = h.Atomic(func(op *Txn[int64, int64]) error {
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

// TestHeapBytesPerKey pins what a key costs the heap once it is in the
// map: its node, tower included (80 bytes expected for word-sized keys
// and values: a 64-byte header plus 16 per tower level, 1 level on
// average). The map is built first, so the bucket array, whose size does
// not depend on the population, is not counted.
func TestHeapBytesPerKey(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	const keys = 1 << 17
	m := New[int64, int64](lessInt64, thashmap.Hash64, Config{})
	h := m.NewHandle()
	defer h.Close()
	h.Insert(-1, -1) // sizes the handle's descriptor logs
	rng := rand.New(rand.NewPCG(1, 2))

	// Two collections: the second frees what the first moved into the
	// sync.Pool victim caches, which earlier tests may have filled.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	inserted := 0
	for i := 0; i < keys; i++ {
		if k := rng.Int64(); h.Insert(k, k) {
			inserted++
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)

	perKey := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(inserted)
	t.Logf("%.1f heap bytes per key over %d keys", perKey, inserted)
	if perKey > 84 {
		t.Errorf("a key costs %.1f heap bytes, budget 84", perKey)
	}
}
