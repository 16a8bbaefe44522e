// Package alloctest holds what the repo's allocation pins (the
// …AllocBudget tests) share: whether the race detector is on — its
// shadow-memory bookkeeping allocates, so the pins skip themselves under
// it — and a fractional allocations-per-call measure.
package alloctest

import "runtime"

// PerOp calls f once to warm up and then n more times, and returns the
// mean number of heap allocations per call. Unlike testing.AllocsPerRun,
// which truncates the mean to a whole number, it can resolve budgets such
// as "1.06 objects per insert"; a zero budget is better pinned with
// AllocsPerRun, whose truncation forgives the odd runtime allocation (a
// collection emptying a sync.Pool mid-run). Like it, the count is
// process-wide, so the test must not run in parallel with others.
func PerOp(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
