package persist

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/stm"
)

// TestLogAllocBudget pins the durable write path's heap traffic under
// sustained load, across 100 of the background flusher's write-outs:
// capturing, publishing and committing a logged transaction — the op
// buffer, both hooks, the WAL append — allocates nothing, and neither
// does the flusher, whose write-outs hand the appenders an array sized by
// earlier traffic. The budget is stated per logged record, over 10^5 of
// them, because the flusher runs on a timer and the host's scheduler
// decides how many flushes that is: 0.01 leaves room for the runtime's
// own allocations and an array a delayed flush grew, where a buffer
// rebuilt from nil behind every flush costs several growth steps per
// hundred records. The arrays themselves may grow, never vanish or shrink.
func TestLogAllocBudget(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	st := openInt64Store(t, Options{Dir: t.TempDir(), Fsync: FsyncInterval, FsyncEvery: 200 * time.Microsecond})
	defer st.Close()
	rt := stm.New()
	var scratch writeScratch
	k := int64(0)
	body := func(tx *stm.Tx) error {
		scratch.f.Store(tx, &scratch.o, scratch.f.Raw()+1)
		st.LogPut(tx, k, k)
		st.LogDel(tx, k)
		return nil
	}
	logUntil := func(flushes, records uint64) {
		s0 := st.Stats()
		for s := s0; s.Flushes-s0.Flushes < flushes || s.Records-s0.Records < records; s = st.Stats() {
			for i := 0; i < 64; i++ {
				k++
				_ = rt.Atomic(body)
			}
		}
	}
	logUntil(10, 0) // warm: descriptor logs, op buffer, both append arrays
	var before, after runtime.MemStats
	lo0, hi0 := st.AppendBufferCaps()
	s0 := st.Stats()
	runtime.ReadMemStats(&before)
	logUntil(100, 100_000)
	runtime.ReadMemStats(&after)
	s1 := st.Stats()
	lo1, hi1 := st.AppendBufferCaps()
	allocs, flushes, records := after.Mallocs-before.Mallocs, s1.Flushes-s0.Flushes, s1.Records-s0.Records
	if perRecord := float64(allocs) / float64(records); perRecord > 0.01 {
		t.Errorf("%.4f allocations per logged record (%d over %d records and %d flushes), budget 0.01",
			perRecord, allocs, records, flushes)
	}
	if lo0 == 0 || lo1 < lo0 || hi1 < hi0 {
		t.Errorf("WAL append arrays went from %d/%d to %d/%d bytes across %d flushes; want two, neither dropped",
			lo0, hi0, lo1, hi1, flushes)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}
