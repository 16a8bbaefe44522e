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
// (one object at every height, its tower included), a successful remove
// costs nothing, and
// the WAL's append arrays are not re-grown behind the flusher's
// write-outs. Both removal pins are stated in what the map controls, not
// in what the host's scheduler does: allocations per removal over 10^5
// of them (0.0007 measured, the runtime's own; rebuilding an append
// array from nil after every flush costs some twenty growth steps per
// flush, several per hundred removals), and the two arrays' capacities
// across at least 100 flushes. A flush the scheduler delays sees more
// traffic and may grow an array; no schedule makes one vanish or shrink.
func TestDurableAllocBudget(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	m := openDurable(t, skiphash.Config{Durability: &skiphash.Durability{
		Dir: t.TempDir(), Fsync: skiphash.FsyncInterval, FsyncEvery: 200 * time.Microsecond, SnapshotBytes: -1,
	}})
	defer m.Close()
	st := m.Persister().(*persist.Store[int64, int64])
	const batch = 8192
	next, victim := int64(0), int64(0)
	insert := func() {
		if !m.Insert(next, next) {
			t.Fatalf("Insert(%d) found the key present", next)
		}
		next++
	}
	remove := func() {
		if !m.Remove(victim) {
			t.Fatalf("Remove(%d) found the key absent", victim)
		}
		victim++
	}
	// Warm: descriptor logs, the op buffer, an unstitch's write set,
	// both of the WAL's append arrays.
	for i := 0; i < batch; i++ {
		insert()
	}
	for i := 0; i < batch; i++ {
		remove()
	}

	if got := alloctest.PerOp(batch, insert); got > 1.01 {
		t.Errorf("durable Insert of a fresh key allocates %.3f/op, budget 1.01", got)
	}

	const removals = 1 << 17
	lo0, hi0 := st.AppendBufferCaps()
	if lo0 == 0 {
		t.Fatalf("after warm-up the WAL holds append arrays of %d and %d bytes; want two", lo0, hi0)
	}
	var allocs uint64
	var before, after runtime.MemStats
	f0, v0 := st.Stats().Flushes, victim
	for victim-v0 < removals || st.Stats().Flushes-f0 < 100 {
		for next-victim < batch {
			insert()
		}
		runtime.ReadMemStats(&before)
		for i := 0; i < batch; i++ {
			remove()
		}
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
	}
	flushes := st.Stats().Flushes - f0
	lo1, hi1 := st.AppendBufferCaps()
	t.Logf("%d allocations over %d removals; append arrays %d/%d -> %d/%d bytes over %d WAL flushes",
		allocs, victim-v0, lo0, hi0, lo1, hi1, flushes)
	if perOp := float64(allocs) / float64(victim-v0); perOp > 0.01 {
		t.Errorf("durable Remove allocates %.4f/op (%d over %d removals), budget 0.01", perOp, allocs, victim-v0)
	}
	if lo1 < lo0 || hi1 < hi0 {
		t.Errorf("WAL append arrays went from %d/%d to %d/%d bytes across %d flushes; a flush dropped one",
			lo0, hi0, lo1, hi1, flushes)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverAllocBudget pins the heap traffic of recovery: reopening a
// directory that holds only a WAL of 10^5 inserts costs at
// most 1.05 objects and 240 bytes per recovered key (1.001 and ~192
// measured). What is left per key is the node the bulk load links; the
// op array, the file buffers and the pairs are a handful of objects for
// the whole recovery, and their bytes are the rest of the figure. Any
// allocation per key added to the recovery path, such as a transaction
// per pair, a boxed entry or a map of the live set, shows up here. The
// pin prices heap traffic, not time.
func TestRecoverAllocBudget(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	const keys = 100_000
	cfg := skiphash.Config{Durability: &skiphash.Durability{
		Dir: t.TempDir(), Fsync: skiphash.FsyncNone, SnapshotBytes: -1,
	}}
	m := openDurable(t, cfg)
	for k := int64(0); k < keys; k++ {
		m.Insert(k, -k)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m = openDurable(t, cfg)
	runtime.ReadMemStats(&after)
	defer m.Close()
	if got := m.SizeSlow(); got != keys {
		t.Fatalf("recovered %d keys, want %d", got, keys)
	}
	perKey := float64(after.Mallocs-before.Mallocs) / keys
	bytesPerKey := float64(after.TotalAlloc-before.TotalAlloc) / keys
	t.Logf("recovery allocated %.3f objects and %.1f bytes per key", perKey, bytesPerKey)
	if perKey > 1.05 {
		t.Errorf("recovery allocates %.3f objects per recovered key, budget 1.05", perKey)
	}
	if bytesPerKey > 240 {
		t.Errorf("recovery allocates %.1f bytes per recovered key, budget 240", bytesPerKey)
	}
}
