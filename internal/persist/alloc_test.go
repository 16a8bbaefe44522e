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
// earlier traffic. The budget is "fewer allocations than flushes": a
// buffer rebuilt from nil behind a flush that raced an append costs
// several growth steps per flush, a steady state costs none, and the
// slack absorbs a collection emptying the buffer pool mid-run.
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
	logUntil := func(flushes uint64) {
		for target := st.Stats().Flushes + flushes; st.Stats().Flushes < target; {
			for i := 0; i < 64; i++ {
				k++
				_ = rt.Atomic(body)
			}
		}
	}
	logUntil(10) // warm: descriptor logs, op buffer, both append arrays
	var before, after runtime.MemStats
	s0 := st.Stats()
	runtime.ReadMemStats(&before)
	logUntil(100)
	runtime.ReadMemStats(&after)
	s1 := st.Stats()
	flushes, records := s1.Flushes-s0.Flushes, s1.Records-s0.Records
	if allocs := after.Mallocs - before.Mallocs; allocs >= flushes {
		t.Errorf("%d allocations over %d records and %d flushes; budget: fewer than one per flush",
			allocs, records, flushes)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}
