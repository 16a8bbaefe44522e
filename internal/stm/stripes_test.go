package stm

import (
	"testing"

	"repro/internal/alloctest"
)

// TestStatsAllocBudget pins Stats at zero allocations: it sums the
// runtime's counter cells in place, so a caller that reads it often
// (every metrics scrape reads it once per STM series) adds nothing to
// the heap.
func TestStatsAllocBudget(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	rt := New()
	var c cell
	for i := 0; i < 100; i++ {
		_ = rt.Atomic(func(tx *Tx) error {
			c.v.Store(tx, &c.orec, uint64(i))
			return nil
		})
	}
	var s Stats
	if got := testing.AllocsPerRun(100, func() { s = rt.Stats() }); got != 0 {
		t.Errorf("Stats allocates %.1f/op, budget 0", got)
	}
	if s.Commits != 100 {
		t.Errorf("Stats().Commits = %d, want 100", s.Commits)
	}
}
