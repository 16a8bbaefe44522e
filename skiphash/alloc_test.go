package skiphash_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/persist"
	"repro/skiphash"
)

// TestDurableAllocBudget pins the heap traffic of updates on a durable
// map at fsync=interval, the repo benchmark's durable-write
// configuration: a successful insert costs its node and nothing else
// (1.06 objects on average: one, plus the separate tower of the 1 node
// in 16 taller than four levels), a successful remove costs nothing, and
// the WAL's append buffer is not re-grown behind the flusher's
// write-outs — the removals are measured across 100 of them and must
// allocate less than once per flush, where rebuilding the buffer from
// nil cost some twenty growth steps each.
func TestDurableAllocBudget(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	m := openDurable(t, skiphash.Config{Durability: &skiphash.Durability{
		Dir: t.TempDir(), Fsync: skiphash.FsyncInterval, FsyncEvery: 200 * time.Microsecond, SnapshotBytes: -1,
	}})
	defer m.Close()
	st := m.Persister().(*persist.Store[int64, int64])
	h := m.NewHandle()
	defer h.Close()

	const batch = 8192
	next, victim := int64(0), int64(0)
	insert := func() {
		if !h.Insert(next, next) {
			t.Fatalf("Insert(%d) found the key present", next)
		}
		next++
	}
	remove := func() {
		if !h.Remove(victim) {
			t.Fatalf("Remove(%d) found the key absent", victim)
		}
		victim++
	}
	// Warm: descriptor logs, the op buffer, the removal buffer's drain,
	// both of the WAL's append arrays.
	for i := 0; i < batch; i++ {
		insert()
	}
	for i := 0; i < batch; i++ {
		remove()
	}

	if got := alloctest.PerOp(batch, insert); got > 1.1 {
		t.Errorf("durable Insert of a fresh key allocates %.3f/op, budget 1.1", got)
	}

	var allocs, flushes uint64
	var before, after runtime.MemStats
	for flushes < 100 {
		for next-victim < batch {
			insert()
		}
		f0 := st.Stats().Flushes
		runtime.ReadMemStats(&before)
		for i := 0; i < batch; i++ {
			remove()
		}
		runtime.ReadMemStats(&after)
		flushes += st.Stats().Flushes - f0
		allocs += after.Mallocs - before.Mallocs
	}
	t.Logf("%d allocations over %d removals and %d WAL flushes", allocs, victim-batch, flushes)
	if allocs >= flushes {
		t.Errorf("durable Remove: %d allocations over %d removals and %d WAL flushes; budget: fewer than one per flush",
			allocs, victim-batch, flushes)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}
