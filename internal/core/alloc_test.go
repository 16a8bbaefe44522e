package core

import (
	"testing"

	"repro/internal/alloctest"
)

// TestOpsAllocBudget pins what each elemental operation may take from the
// heap on a quiescent map: nothing for reads and removals, and for the
// insertion of a fresh key the node alone — one object, plus the separate
// tower slice of the 1 node in 16 that is taller than 4 levels.
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
		if insert > 1.1 {
			t.Errorf("Insert of a fresh key allocates %.3f/op, budget 1.1", insert)
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

		// Enough removals to fill and flush the handle's removal
		// buffer many times over: the batched unstitch is in budget.
		// The first flushes run unmeasured — they grow the logs of
		// the descriptor the nested drain transaction runs on.
		victim := int64(0)
		remove := func() {
			if !h.Remove(victim) {
				t.Fatalf("Remove(%d) found the key absent", victim)
			}
			victim++
		}
		for i := 0; i < 4*m.cfg.RemovalBufferSize; i++ {
			remove()
		}
		if got := testing.AllocsPerRun(keys/2, remove); got != 0 {
			t.Errorf("Remove allocates %.2f/op, budget 0", got)
		}
	})
}
