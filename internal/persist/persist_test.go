package persist

import (
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/stm"
)

// logTx runs fn inside a writing transaction: a throwaway transactional
// field is stored so the transaction acquires an orec, draws a commit
// stamp, and fires its publish hooks — the store only logs writing
// transactions.
func logTx(t *testing.T, rt *stm.Runtime, scratch *writeScratch, fn func(tx *stm.Tx)) {
	t.Helper()
	if err := writeTx(rt, scratch, fn); err != nil {
		t.Fatalf("logTx: %v", err)
	}
}

// writeTx runs fn in a transaction that also bumps scratch, so it
// commits as a writer and runs its publish hooks, and returns the
// transaction's error.
func writeTx(rt *stm.Runtime, scratch *writeScratch, fn func(tx *stm.Tx)) error {
	return rt.Atomic(func(tx *stm.Tx) error {
		scratch.f.Store(tx, &scratch.o, scratch.f.Raw()+1)
		fn(tx)
		return nil
	})
}

type writeScratch struct {
	o stm.Orec
	f stm.U64
}

func int64Less(a, b int64) bool { return a < b }

func openInt64Store(t *testing.T, opts Options) *Store[int64, int64] {
	t.Helper()
	st, err := Open[int64, int64](opts, int64Less, Int64Codec(), Int64Codec())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

func recoveredMap(st *Store[int64, int64]) map[int64]int64 {
	out := make(map[int64]int64)
	for _, kv := range st.TakeRecovered() {
		out[kv.Key] = kv.Val
	}
	return out
}

func TestCodecRoundTrip(t *testing.T) {
	ic := Int64Codec()
	buf := ic.Append(nil, -42)
	v, n, err := ic.Read(buf)
	if err != nil || v != -42 || n != 8 {
		t.Fatalf("int64 round trip: %d %d %v", v, n, err)
	}
	sc := StringCodec()
	buf = sc.Append(nil, "hello, skip hash")
	s, n, err := sc.Read(buf)
	if err != nil || s != "hello, skip hash" || n != len(buf) {
		t.Fatalf("string round trip: %q %d %v", s, n, err)
	}
	if _, _, err := sc.Read(buf[:3]); err == nil {
		t.Fatal("truncated string decoded without error")
	}
	bc := BytesCodec()
	buf = bc.Append(nil, []byte{1, 2, 3})
	b, _, err := bc.Read(buf)
	if err != nil || len(b) != 3 || b[2] != 3 {
		t.Fatalf("bytes round trip: %v %v", b, err)
	}
}

// TestOpenRefusesMissingArgs: Open refuses, before touching the
// directory, a call without a directory, a key order or codecs.
func TestOpenRefusesMissingArgs(t *testing.T) {
	ic := Int64Codec()
	for _, tc := range []struct {
		name   string
		dir    string
		less   func(a, b int64) bool
		kc, vc Codec[int64]
	}{
		{"no dir", "", int64Less, ic, ic},
		{"nil less", t.TempDir(), nil, ic, ic},
		{"nil key codec", t.TempDir(), int64Less, Codec[int64]{}, ic},
		{"nil value codec", t.TempDir(), int64Less, ic, Codec[int64]{Append: ic.Append}},
	} {
		if st, err := Open[int64, int64](Options{Dir: tc.dir}, tc.less, tc.kc, tc.vc); err == nil {
			st.Close()
			t.Errorf("%s: Open succeeded", tc.name)
		}
	}
}

// TestWALRecovery logs a mixed op sequence (including multi-op batch
// records), closes cleanly, and verifies recovery reproduces the model.
func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	// FsyncAlways flushes per record, so the small SegmentBytes actually
	// forces rotations (segments rotate between flushes, never mid-flush).
	opts := Options{Dir: dir, SegmentBytes: 1 << 12, Fsync: FsyncAlways}
	st := openInt64Store(t, opts)
	rt := stm.New()
	var ws writeScratch
	model := map[int64]int64{}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		k := int64(rng.Uint64() % 128)
		switch rng.Uint64() % 3 {
		case 0:
			v := int64(i)
			logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, k, v) })
			model[k] = v
		case 1:
			logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogDel(tx, k) })
			delete(model, k)
		case 2:
			// A batch: delete k, put k+1000 — one record.
			v := int64(i)
			logTx(t, rt, &ws, func(tx *stm.Tx) {
				st.LogDel(tx, k)
				st.LogPut(tx, k+1000, v)
			})
			delete(model, k)
			model[k+1000] = v
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := openInt64Store(t, opts)
	defer st2.Close()
	info := st2.Recovered()
	if info.Records != 2000 {
		t.Fatalf("recovered %d records, want 2000", info.Records)
	}
	if info.Segments < 2 {
		t.Fatalf("expected multiple segments, got %d", info.Segments)
	}
	got := recoveredMap(st2)
	if len(got) != len(model) {
		t.Fatalf("recovered %d entries, want %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("key %d: recovered %d want %d", k, got[k], v)
		}
	}
}

// TestSnapshotTruncates verifies a snapshot supersedes older snapshots
// and deletes fully covered WAL segments, and that snapshot + newer
// records recover correctly.
func TestSnapshotTruncates(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: 1 << 11, SnapshotBytes: -1, Fsync: FsyncAlways}
	st := openInt64Store(t, opts)
	rt := stm.New()
	var ws writeScratch
	model := map[int64]int64{}
	put := func(k, v int64) {
		logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, k, v) })
		model[k] = v
	}
	for i := int64(0); i < 500; i++ {
		put(i, i)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Source reflects the model at a stamp beyond every record logged
	// so far: any stamp from the runtime's clock read after the ops.
	st.Start(func(chunkSize int, emit func(uint64, []KV[int64, int64]) error) error {
		stamp := rt.Clock().Read() + 1
		kvs := make([]KV[int64, int64], 0, len(model))
		for k, v := range model {
			kvs = append(kvs, KV[int64, int64]{Key: k, Val: v})
		}
		return emit(stamp, kvs)
	})
	if err := st.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	segsAfter, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segsAfter) > 2 {
		t.Fatalf("snapshot left %d segments, want <=2 (active + at most one)", len(segsAfter))
	}
	if stats := st.Stats(); stats.Snapshots != 1 || stats.SegmentsDeleted == 0 {
		t.Fatalf("stats after snapshot: %+v", stats)
	}
	for i := int64(0); i < 50; i++ {
		put(1000+i, i)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := openInt64Store(t, opts)
	defer st2.Close()
	if st2.Recovered().SnapshotEntries != 500 {
		t.Fatalf("snapshot entries %d, want 500", st2.Recovered().SnapshotEntries)
	}
	got := recoveredMap(st2)
	if len(got) != len(model) {
		t.Fatalf("recovered %d entries, want %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("key %d: recovered %d want %d", k, got[k], v)
		}
	}
}

// TestFsyncAlwaysDurableBeforeReturn: with FsyncAlways, a logged op is
// on disk by the time the transaction returns — SimulateCrash (which
// drops everything not yet written) must lose nothing.
func TestFsyncAlwaysDurableBeforeReturn(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Fsync: FsyncAlways}
	st := openInt64Store(t, opts)
	rt := stm.New()
	var ws writeScratch
	for i := int64(0); i < 50; i++ {
		logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, i, i) })
	}
	if err := st.SimulateCrash(); err != nil {
		t.Fatalf("SimulateCrash: %v", err)
	}
	st2 := openInt64Store(t, opts)
	defer st2.Close()
	if got := len(recoveredMap(st2)); got != 50 {
		t.Fatalf("FsyncAlways lost data: recovered %d of 50", got)
	}
}

// TestCommitAfterCloseRefused: a transaction that commits after the log
// closed cannot be appended, so the log refuses it: the transaction
// rolls back with ErrClosed, leaving its write undone, Err and a second
// Close stay nil (nothing acknowledged was lost), and the recovered log
// holds the commit made before Close but not the refused one.
func TestCommitAfterCloseRefused(t *testing.T) {
	dir := t.TempDir()
	st := openInt64Store(t, Options{Dir: dir, Fsync: FsyncAlways})
	rt := stm.New()
	var ws writeScratch
	logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, 1, 10) })
	if err := st.Close(); err != nil {
		t.Fatalf("clean Close: %v", err)
	}
	if err := writeTx(rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, 2, 20) }); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after Close = %v, want ErrClosed", err)
	}
	if got := ws.f.Raw(); got != 1 {
		t.Fatalf("refused commit left its write in memory: scratch %d, want 1", got)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("Err after a refused commit: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close after a refused commit: %v", err)
	}
	st2 := openInt64Store(t, Options{Dir: dir})
	defer st2.Close()
	if got := recoveredMap(st2); len(got) != 1 || got[1] != 10 {
		t.Fatalf("recovered %v, want only the commit before Close", got)
	}
}

// TestSnapshotStraddlingBatchSurvivesCrash: a record logged between two
// snapshot chunks straddles the snapshot — one key's chunk predates it,
// the other's reflects it. Snapshot must sync the WAL before the rename
// publishes the snapshot as the recovery source; otherwise a crash
// loses the record and recovery applies the batch to one key but not
// the other, violating batch atomicity.
func TestSnapshotStraddlingBatchSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	// FsyncNone with an hour-long write-out cadence: nothing reaches the
	// file unless Snapshot itself syncs it.
	opts := Options{Dir: dir, Fsync: FsyncNone, FsyncEvery: time.Hour, SnapshotBytes: -1}
	st := openInt64Store(t, opts)
	rt := stm.New()
	var ws writeScratch
	// Durable baseline for both keys.
	logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, 1, 10) })
	logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, 2, 10) })
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// The source plays the role of SnapshotChunks racing a writer: key
	// 2's chunk is emitted before a batch updates both keys, key 1's
	// chunk after, reflecting it.
	st.Start(func(chunkSize int, emit func(uint64, []KV[int64, int64]) error) error {
		if err := emit(rt.Clock().Read(), []KV[int64, int64]{{Key: 2, Val: 10}}); err != nil {
			return err
		}
		logTx(t, rt, &ws, func(tx *stm.Tx) {
			st.LogPut(tx, 1, 20)
			st.LogPut(tx, 2, 20)
		})
		return emit(rt.Clock().Read()+1, []KV[int64, int64]{{Key: 1, Val: 20}})
	})
	if err := st.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := st.SimulateCrash(); err != nil {
		t.Fatalf("SimulateCrash: %v", err)
	}
	st2 := openInt64Store(t, opts)
	defer st2.Close()
	got := recoveredMap(st2)
	if got[1] != 20 || got[2] != 20 {
		t.Fatalf("straddling batch recovered partially: got %v, want both keys = 20", got)
	}
}

// TestTornTailTolerated: a crash that tears the last record leaves a
// recoverable prefix, and the repaired file recovers identically again.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	// FsyncNone with a fast write-out: records reach the file but are
	// never fsynced, so the torn crash has an unsynced tail to cut (the
	// tear is bounded by the fsync horizon — power loss cannot revoke a
	// completed fsync).
	opts := Options{Dir: dir, Fsync: FsyncNone, FsyncEvery: 2 * time.Millisecond}
	st := openInt64Store(t, opts)
	rt := stm.New()
	var ws writeScratch
	for i := int64(0); i < 100; i++ {
		logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, i, i) })
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := st.Stats()
		if s.FlushedBytes == s.AppendedBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("records never reached the file")
		}
		time.Sleep(time.Millisecond)
	}
	if err := st.SimulateTornCrash(7); err != nil {
		t.Fatalf("SimulateTornCrash: %v", err)
	}
	st2, err := Open[int64, int64](opts, int64Less, Int64Codec(), Int64Codec())
	if err != nil {
		t.Fatalf("recovery after torn crash: %v", err)
	}
	info := st2.Recovered()
	if !info.TornTail {
		t.Fatalf("expected TornTail, got %+v", info)
	}
	if info.Records >= 100 || info.Records < 90 {
		t.Fatalf("torn tail should drop a small suffix, recovered %d records", info.Records)
	}
	got := recoveredMap(st2)
	// Single-writer: the surviving records are exactly a prefix.
	for i := int64(0); i < int64(info.Records); i++ {
		if got[i] != i {
			t.Fatalf("prefix key %d missing or wrong: %d", i, got[i])
		}
	}
	if len(got) != info.Records {
		t.Fatalf("recovered %d entries from %d records", len(got), info.Records)
	}
	st2.Close()

	st3 := openInt64Store(t, opts)
	defer st3.Close()
	if st3.Recovered().TornTail {
		t.Fatal("tail was not repaired: second recovery still sees a torn frame")
	}
	if st3.Recovered().Records != info.Records {
		t.Fatalf("second recovery %d records, first %d", st3.Recovered().Records, info.Records)
	}
}

// TestCorruptionRejected: a flipped bit inside a record is a checksum
// error, not silently wrong data.
func TestCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir}
	st := openInt64Store(t, opts)
	rt := stm.New()
	var ws writeScratch
	for i := int64(0); i < 100; i++ {
		logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, i, i) })
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) == 0 {
		t.Fatal("no segments written")
	}
	data, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(segs[len(segs)-1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open[int64, int64](opts, int64Less, Int64Codec(), Int64Codec())
	if err == nil {
		t.Fatal("corrupted WAL recovered without error")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error does not match ErrCorrupt: %v", err)
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) || ce.Path == "" || ce.Reason == "" {
		t.Fatalf("error is not a precise CorruptionError: %#v", err)
	}
}

// TestCloseIdempotentConcurrent: concurrent Close calls all return
// after teardown, and post-close appends are rejected not lost.
func TestCloseIdempotentConcurrent(t *testing.T) {
	dir := t.TempDir()
	st := openInt64Store(t, Options{Dir: dir})
	rt := stm.New()
	var ws writeScratch
	logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, 1, 1) })
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() { done <- st.Close() }()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent Close: %v", err)
		}
	}
	if _, err := st.w.appendRecord(99, 1, []byte{opDel, 0, 0, 0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
}

// TestIntervalFsyncEventuallySyncs: with FsyncInterval, records reach
// disk without any explicit Sync.
func TestIntervalFsyncEventuallySyncs(t *testing.T) {
	dir := t.TempDir()
	st := openInt64Store(t, Options{Dir: dir, Fsync: FsyncInterval, FsyncEvery: 5 * time.Millisecond})
	rt := stm.New()
	var ws writeScratch
	logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, 7, 7) })
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := st.Stats(); s.Syncs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never happened")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Crash drops only user-space state; the synced record survives.
	st.SimulateCrash()
	st2 := openInt64Store(t, Options{Dir: dir})
	defer st2.Close()
	if got := recoveredMap(st2); got[7] != 7 {
		t.Fatalf("interval-synced record lost: %v", got)
	}
}

// TestZeroExtendedTailTolerated: delayed allocation after power loss
// can zero-fill the unsynced suffix of the newest segment; an all-zero
// frame header parses as a valid empty frame, which must be treated as
// a torn tail (and repaired), not rejected as corruption.
func TestZeroExtendedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir}
	st := openInt64Store(t, opts)
	rt := stm.New()
	var ws writeScratch
	for i := int64(0); i < 50; i++ {
		logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, i, i) })
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := Open[int64, int64](opts, int64Less, Int64Codec(), Int64Codec())
	if err != nil {
		t.Fatalf("zero-extended tail rejected: %v", err)
	}
	if !st2.Recovered().TornTail || st2.Recovered().Records != 50 {
		t.Fatalf("recovery info: %+v", st2.Recovered())
	}
	if got := recoveredMap(st2); len(got) != 50 || got[49] != 49 {
		t.Fatalf("lost records behind the zero tail: %d entries", len(got))
	}
	st2.Close()

	st3 := openInt64Store(t, opts)
	defer st3.Close()
	if st3.Recovered().TornTail {
		t.Fatal("zero tail was not repaired")
	}
}

func TestRemoveFileDurable(t *testing.T) {
	// A removal is done once the file is gone and its directory synced;
	// a file already gone counts as removed. Anything else is an error.
	var fsys FS
	dir := t.TempDir()
	path := filepath.Join(dir, "replica.pos")
	if err := fsys.WriteFile(path, []byte("1 2\n")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := fsys.Remove(dir, "replica.pos"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("file still there after removal: %v", err)
	}
	if err := fsys.Remove(dir, "replica.pos"); err != nil {
		t.Fatalf("Remove of a missing file: %v", err)
	}
	if err := fsys.Remove(filepath.Join(dir, "gone"), "replica.pos"); err == nil {
		t.Fatal("Remove in a missing directory succeeded: nothing was synced")
	}
	full := filepath.Join(dir, "full")
	if err := os.MkdirAll(filepath.Join(full, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(dir, "full"); err == nil {
		t.Fatal("Remove of a non-empty directory succeeded")
	}
}
