package persist

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/stm"
)

// incarnation opens dir, checks that it recovers model, logs a put of
// each key (value key*10) into model, and closes the store. One runtime
// serves every incarnation, so stamps rise across them as they do under
// a reopened map's floored clock.
func incarnation(t *testing.T, opts Options, rt *stm.Runtime, model map[int64]int64, keys ...int64) {
	t.Helper()
	st := openInt64Store(t, opts)
	if got := recoveredMap(st); !maps.Equal(got, model) {
		t.Fatalf("recovered %v, want %v", got, model)
	}
	var ws writeScratch
	for _, k := range keys {
		logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, k, k*10) })
		model[k] = k * 10
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// segmentKeys returns the file sequence numbers of dir's WAL segments,
// ascending, and the keys each one's records put.
func segmentKeys(t *testing.T, dir string) ([]uint64, [][]int64) {
	t.Helper()
	st, err := scanDir(FS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	var keys [][]int64
	for _, seg := range st.segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, walMagic) {
			t.Fatalf("%s has no segment header", seg.path)
		}
		var ks []int64
		for _, rec := range walkRecords(t, data[len(walMagic):]) {
			err := DecodeOps(rec.ops, rec.count, Int64Codec(), Int64Codec(),
				func(k, _ int64) error { ks = append(ks, k); return nil },
				func(int64) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
		}
		seqs = append(seqs, seg.seq)
		keys = append(keys, ks)
	}
	return seqs, keys
}

// TestSegmentPerIncarnation: every open starts a segment of its own, so
// three open/put/close cycles leave three segments, each holding exactly
// the puts of one cycle, and the directory recovers all of them.
func TestSegmentPerIncarnation(t *testing.T) {
	opts := Options{Dir: t.TempDir(), SnapshotBytes: -1}
	rt := stm.New()
	model := map[int64]int64{}
	want := [][]int64{{1, 2, 3}, {4, 5}, {6, 7, 8, 9}}
	for _, keys := range want {
		incarnation(t, opts, rt, model, keys...)
	}
	seqs, got := segmentKeys(t, opts.Dir)
	if !slices.Equal(seqs, []uint64{1, 2, 3}) || !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("segments %v hold keys %v, want segments [1 2 3] holding %v", seqs, got, want)
	}
	incarnation(t, opts, rt, model)
}

// TestReopenTruncatesCoveredSegments: a snapshot that covers every
// record cannot delete the segment still active when it is taken, but
// the next open does: the same prefix rule retires covered segments at
// run time and at open, the newest one included.
func TestReopenTruncatesCoveredSegments(t *testing.T) {
	opts := Options{Dir: t.TempDir(), SnapshotBytes: -1}
	rt := stm.New()
	model := map[int64]int64{}
	incarnation(t, opts, rt, model, 1, 2, 3)
	incarnation(t, opts, rt, model, 4, 5)

	st := openInt64Store(t, opts)
	recoveredMap(st)
	var ws writeScratch
	logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, 6, 60) })
	model[6] = 60
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st.Start(func(chunkSize int, emit func(uint64, []KV[int64, int64]) error) error {
		kvs := make([]KV[int64, int64], 0, len(model))
		for k, v := range model {
			kvs = append(kvs, KV[int64, int64]{Key: k, Val: v})
		}
		return emit(rt.Clock().Read()+1, kvs)
	})
	if err := st.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if seqs, _ := segmentKeys(t, opts.Dir); len(seqs) != 1 {
		t.Fatalf("segments %v after the snapshot, want only the active one", seqs)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st = openInt64Store(t, opts)
	if got := recoveredMap(st); !maps.Equal(got, model) {
		t.Fatalf("recovered %v, want %v", got, model)
	}
	if n := st.Stats().SegmentsDeleted; n != 1 {
		t.Errorf("open deleted %d segments, want 1", n)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if seqs, _ := segmentKeys(t, opts.Dir); len(seqs) != 0 {
		t.Fatalf("segments %v survive a reopen behind a snapshot covering them", seqs)
	}
}

// TestHeaderlessSegmentRemoved: a crash between a segment's creation and
// its header write leaves a zero-length newest segment. Recovery deletes
// it, so it never becomes a non-last segment recovery would refuse once
// the next incarnations add segments of their own (the first of which
// takes the deleted one's name).
func TestHeaderlessSegmentRemoved(t *testing.T) {
	opts := Options{Dir: t.TempDir(), SnapshotBytes: -1}
	rt := stm.New()
	model := map[int64]int64{}
	incarnation(t, opts, rt, model, 1, 2)
	empty := filepath.Join(opts.Dir, segName(2))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	st := openInt64Store(t, opts)
	if info := st.Recovered(); !info.TornTail || info.Segments != 1 {
		t.Fatalf("recovery info %+v, want a torn tail and one segment read", info)
	}
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		t.Fatalf("headerless segment after Open: %v, want it deleted", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	incarnation(t, opts, rt, model, 3)
	incarnation(t, opts, rt, model, 4, 5)
	incarnation(t, opts, rt, model)
	seqs, got := segmentKeys(t, opts.Dir)
	if want := [][]int64{{1, 2}, {3}, {4, 5}}; !slices.Equal(seqs, []uint64{1, 2, 3}) || !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("segments %v hold keys %v, want segments [1 2 3] holding %v", seqs, got, want)
	}
}

// TestReopenSeedsSnapshotDebt: the frames of the segments an open keeps
// are log no snapshot covers, so they start the size trigger's debt.
func TestReopenSeedsSnapshotDebt(t *testing.T) {
	opts := Options{Dir: t.TempDir(), SnapshotBytes: -1}
	rt := stm.New()
	model := map[int64]int64{}
	incarnation(t, opts, rt, model, 1, 2, 3)
	incarnation(t, opts, rt, model, 4, 5)
	dir, err := scanDir(FS{}, opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, seg := range dir.segs {
		fi, err := os.Stat(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		want += fi.Size() - int64(len(walMagic))
	}
	st := openInt64Store(t, opts)
	if got := st.Stats().BytesSinceSnap; want == 0 || got != want {
		t.Fatalf("BytesSinceSnap after the reopen = %d, want the kept frame bytes %d", got, want)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRestartsStillSnapshot: a store restarted before each run logs
// SnapshotBytes still snapshots, because the recovered log counts toward
// the trigger, so its segments stay bounded however often it restarts.
func TestRestartsStillSnapshot(t *testing.T) {
	const runBytes = 2 << 10
	opts := Options{Dir: t.TempDir(), SnapshotBytes: 2 * runBytes}
	rt := stm.New()
	var mu sync.Mutex // orders commits and model updates against the source
	model := map[int64]int64{}
	var snapshots uint64
	for run := int64(0); run < 8; run++ {
		st := openInt64Store(t, opts)
		if got := recoveredMap(st); !maps.Equal(got, model) {
			t.Fatalf("run %d recovered %d keys, want %d", run, len(got), len(model))
		}
		st.Start(func(_ int, emit func(uint64, []KV[int64, int64]) error) error {
			mu.Lock()
			kvs := make([]KV[int64, int64], 0, len(model))
			for k, v := range model {
				kvs = append(kvs, KV[int64, int64]{Key: k, Val: v})
			}
			stamp := rt.Clock().Read() + 1
			mu.Unlock()
			return emit(stamp, kvs)
		})
		var ws writeScratch
		for k := run << 32; st.Stats().AppendedBytes < runBytes; k++ {
			mu.Lock()
			logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, k, k) })
			model[k] = k
			mu.Unlock()
		}
		// A debt at the trigger has kicked a snapshot, which resets it.
		for deadline := time.Now().Add(10 * time.Second); st.Stats().BytesSinceSnap >= opts.SnapshotBytes; {
			if time.Now().After(deadline) {
				t.Fatalf("run %d: no snapshot cleared a debt of %d bytes", run, st.Stats().BytesSinceSnap)
			}
			time.Sleep(time.Millisecond)
		}
		snapshots += st.Stats().Snapshots
		if err := st.Close(); err != nil {
			t.Fatalf("run %d Close: %v", run, err)
		}
	}
	seqs, _ := segmentKeys(t, opts.Dir)
	if snapshots == 0 || len(seqs) > 2 {
		t.Fatalf("8 restarts took %d snapshots and left segments %v, want snapshots and at most 2 segments", snapshots, seqs)
	}
}
