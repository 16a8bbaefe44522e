package persist

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/stm"
)

// TestSyncAfterCloseReturnsSentinel pins the Sync/Close race contract:
// a Sync that runs after (or concurrently with) Close must answer with
// ErrSyncRaced — matching ErrClosed — and be counted, never return nil
// just because Close's own flush already covered every byte.
func TestSyncAfterCloseReturnsSentinel(t *testing.T) {
	dir := t.TempDir()
	st := openInt64Store(t, Options{Dir: dir, Fsync: FsyncNone})
	st.Start(func(chunkSize int, emit func(stamp uint64, kvs []KV[int64, int64]) error) error {
		return nil
	})
	rt := stm.New()
	var ws writeScratch
	logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, 1, 10) })
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	err := st.Sync()
	if !errors.Is(err, ErrSyncRaced) {
		t.Fatalf("Sync after Close = %v, want ErrSyncRaced", err)
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("ErrSyncRaced does not match ErrClosed: %v", err)
	}
	if got := st.Stats().LateSyncs; got < 1 {
		t.Fatalf("LateSyncs = %d, want >= 1", got)
	}
	// Snapshot racing Close goes through the same gate.
	if err := st.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after Close = %v, want ErrClosed match", err)
	}
}

// TestSyncAfterSimulateCrash pins the crash flavor of the same race.
func TestSyncAfterSimulateCrash(t *testing.T) {
	dir := t.TempDir()
	st := openInt64Store(t, Options{Dir: dir, Fsync: FsyncNone})
	rt := stm.New()
	var ws writeScratch
	logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, 1, 10) })
	if err := st.SimulateCrash(); err != nil {
		t.Fatalf("SimulateCrash: %v", err)
	}
	if err := st.Sync(); !errors.Is(err, ErrSyncRaced) {
		t.Fatalf("Sync after SimulateCrash = %v, want ErrSyncRaced", err)
	}
	if got := st.Stats().LateSyncs; got < 1 {
		t.Fatalf("LateSyncs = %d, want >= 1", got)
	}
}

// TestSyncCloseRaceConcurrent hammers Sync against a concurrent Close
// under the race detector: every Sync must return nil (it won the race
// and its data is durable), a sticky I/O error, or something matching
// ErrClosed — never a misleading low-level error, never a false nil
// after the post-flush state check sees a closed engine.
func TestSyncCloseRaceConcurrent(t *testing.T) {
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		st := openInt64Store(t, Options{Dir: dir, Fsync: FsyncNone})
		rt := stm.New()
		var ws writeScratch
		logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, 1, int64(round)) })

		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 8; j++ {
					if err := st.Sync(); err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("Sync raced Close returned %v; want nil or ErrClosed match", err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := st.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		close(start)
		wg.Wait()
	}
}

// TestDecodeOpsCorruption pins the decoder's error contract.
func TestDecodeOpsCorruption(t *testing.T) {
	ic := Int64Codec()
	ops := []byte{opPut}
	ops = ic.Append(ops, 1)
	ops = ic.Append(ops, 2)
	nop := func(k, v int64) error { return nil }
	ndel := func(k int64) error { return nil }
	if err := DecodeOps(ops, 1, ic, ic, nop, ndel); err != nil {
		t.Fatalf("valid ops: %v", err)
	}
	if err := DecodeOps(ops[:3], 1, ic, ic, nop, ndel); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated key = %v, want ErrCorrupt", err)
	}
	if err := DecodeOps(ops, 2, ic, ic, nop, ndel); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short op list = %v, want ErrCorrupt", err)
	}
	if err := DecodeOps(append(ops, 0xee), 1, ic, ic, nop, ndel); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes = %v, want ErrCorrupt", err)
	}
	bad := append([]byte{99}, ops[1:]...)
	if err := DecodeOps(bad, 1, ic, ic, nop, ndel); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown kind = %v, want ErrCorrupt", err)
	}
	sentinel := errors.New("stop")
	if err := DecodeOps(ops, 1, ic, ic, func(k, v int64) error { return sentinel }, ndel); !errors.Is(err, sentinel) {
		t.Fatalf("callback error = %v, want passthrough", err)
	}
}
