package shard_test

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/core"
)

// TestOpsAllocBudget pins the allocation budget of the map shard.New
// builds, at GOMAXPROCS 1 and 2: through the Handle shim the benchmark's
// shard rung calls and through the map itself, reads and warm-buffer
// ranges take nothing from the heap, an insert/remove pair takes the node, and an Atomic batch takes
// one object (its Txn view) beyond what its body allocates.
func TestOpsAllocBudget(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	const keys = 10000
	for _, procs := range []int{1, 2} {
		atProcs(t, procs, func(t *testing.T) {
			s := newInt64(core.Config{})
			defer s.Close()
			h := s.NewHandle()
			defer h.Close()
			for k := int64(0); k < keys; k++ {
				h.Insert(k, k)
			}

			k := int64(0)
			lookup := func(fn func(int64) (int64, bool)) func() {
				return func() {
					if v, ok := fn(k % keys); !ok || v != k%keys {
						t.Fatalf("Lookup(%d) = %d, %v", k%keys, v, ok)
					}
					k += 7
				}
			}
			if got := testing.AllocsPerRun(1000, lookup(h.Lookup)); got != 0 {
				t.Errorf("Handle.Lookup allocates %.2f/op, budget 0", got)
			}
			if got := testing.AllocsPerRun(1000, lookup(s.Lookup)); got != 0 {
				t.Errorf("Map.Lookup allocates %.2f/op, budget 0", got)
			}

			out := make([]core.Pair[int64, int64], 0, 128)
			lo := int64(0)
			scan := func(fn func(l, r int64, out []core.Pair[int64, int64]) []core.Pair[int64, int64]) func() {
				return func() {
					if res := fn(lo, lo+99, out); len(res) != 100 {
						t.Fatalf("Range(%d, %d) returned %d pairs", lo, lo+99, len(res))
					}
					lo = (lo + 13) % (keys - 100)
				}
			}
			scan(h.Range)()
			if got := testing.AllocsPerRun(500, scan(h.Range)); got != 0 {
				t.Errorf("Handle.Range into a sized buffer allocates %.2f/op, budget 0", got)
			}
			scan(s.Range)()
			if got := testing.AllocsPerRun(500, scan(s.Range)); got != 0 {
				t.Errorf("Map.Range into a sized buffer allocates %.2f/op, budget 0", got)
			}

			// A fresh key in, the same key out: the node is the one object,
			// its tower included (core's pin).
			fresh := int64(keys)
			if got := alloctest.PerOp(keys, func() {
				if !h.Insert(fresh, fresh) || !h.Remove(fresh) {
					t.Fatalf("Insert+Remove(%d) found the wrong state", fresh)
				}
				fresh++
			}); got > 1.01 {
				t.Errorf("Insert+Remove allocates %.3f/op, budget 1.01", got)
			}

			if got := alloctest.PerOp(keys, func() {
				_ = h.Atomic(func(op *core.Txn[int64, int64]) error {
					op.Lookup(k % keys)
					k += 7
					return nil
				})
			}); got > 1.01 {
				t.Errorf("read-only Atomic allocates %.3f/op, budget 1", got)
			}
			if got := alloctest.PerOp(keys, func() {
				_ = h.Atomic(func(op *core.Txn[int64, int64]) error {
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
}
