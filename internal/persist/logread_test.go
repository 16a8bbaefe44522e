package persist

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/stm"
)

// walRecord is one record WalkFrames handed back.
type walRecord struct {
	stamp, count uint64
	ops          []byte
}

// walkRecords decodes a run of frames into its records.
func walkRecords(t *testing.T, frames []byte) []walRecord {
	t.Helper()
	var recs []walRecord
	err := WalkFrames(frames, func(_ int64, stamp, count uint64, ops []byte) error {
		recs = append(recs, walRecord{stamp, count, bytes.Clone(ops)})
		return nil
	})
	if err != nil {
		t.Fatalf("WalkFrames: %v", err)
	}
	return recs
}

// readAll reads the log from pos to its end in runs of at most limit
// bytes.
func readAll(t *testing.T, r *LogReader, pos int64, limit int) []byte {
	t.Helper()
	var out []byte
	for end := r.End(); pos < end; {
		run, err := r.Read(nil, pos, limit)
		if err != nil {
			t.Fatalf("Read at %d: %v", pos, err)
		}
		if len(run) == 0 {
			t.Fatalf("Read at %d below end %d returned nothing", pos, end)
		}
		out = append(out, run...)
		pos += int64(len(run))
	}
	return out
}

// TestLogReaderObservesAppends pins the replication feed: a log reader
// returns every accepted record, verbatim and in append order, whether
// it still sits in the append buffer or has been written to a segment,
// and the records' ops decode back to the logical operations. Positions
// number this incarnation's frames only.
func TestLogReaderObservesAppends(t *testing.T) {
	dir := t.TempDir()
	st := openInt64Store(t, Options{Dir: dir, Fsync: FsyncNone, FsyncEvery: time.Hour})
	r := st.NewLogReader()
	defer r.Close()
	rt := stm.New()
	var ws writeScratch
	grown := r.Wait(0)
	logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, 7, 70) })
	select {
	case <-grown:
	default:
		t.Fatal("an append did not close the Wait channel")
	}
	logTx(t, rt, &ws, func(tx *stm.Tx) {
		st.LogDel(tx, 7)
		st.LogPut(tx, 8, 80)
	})

	fromMemory := readAll(t, r, 0, 1)
	if int64(len(fromMemory)) != r.End() {
		t.Fatalf("read %d bytes of a %d-byte log", len(fromMemory), r.End())
	}
	recs := walkRecords(t, fromMemory)
	if len(recs) != 2 || recs[0].count != 1 || recs[1].count != 2 {
		t.Fatalf("records %+v, want counts 1 then 2", recs)
	}
	if recs[0].stamp >= recs[1].stamp {
		t.Fatalf("stamps not increasing: %d then %d", recs[0].stamp, recs[1].stamp)
	}
	model := map[int64]int64{}
	for _, rec := range recs {
		err := DecodeOps(rec.ops, rec.count, Int64Codec(), Int64Codec(),
			func(k, v int64) error { model[k] = v; return nil },
			func(k int64) error { delete(model, k); return nil })
		if err != nil {
			t.Fatalf("DecodeOps: %v", err)
		}
	}
	if len(model) != 1 || model[8] != 80 {
		t.Fatalf("replayed state = %v, want {8:80}", model)
	}
	select {
	case <-r.Wait(r.End()):
		t.Fatal("Wait at the log's end is already closed")
	default:
	}

	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if fromFile := readAll(t, r, 0, 1<<20); !bytes.Equal(fromFile, fromMemory) {
		t.Fatal("the written-out log reads back different bytes")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopened store appends to a segment of its own; the frames
	// recovered from the old one have no position in the new log.
	st = openInt64Store(t, Options{Dir: dir, Fsync: FsyncNone, FsyncEvery: time.Hour})
	defer st.Close()
	r2 := st.NewLogReader()
	defer r2.Close()
	if end := r2.End(); end != 0 || !r2.Has(0) || r2.Has(1) {
		t.Fatalf("reopened log: end %d, Has(0) %v, Has(1) %v; want 0, true, false", end, r2.Has(0), r2.Has(1))
	}
	logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, 9, 90) })
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if recs := walkRecords(t, readAll(t, r2, 0, 1<<20)); len(recs) != 1 || recs[0].count != 1 {
		t.Fatalf("reopened log holds %+v, want the one new record", recs)
	}
}

// TestLogReaderAcrossRotationAndTruncation reads a log that rotated
// through many segments while it was written, then truncates it under a
// reader: a position in a removed segment is ErrTruncated.
func TestLogReaderAcrossRotationAndTruncation(t *testing.T) {
	st := openInt64Store(t, Options{Dir: t.TempDir(), Fsync: FsyncNone, FsyncEvery: time.Millisecond,
		SegmentBytes: 1 << 10, SnapshotBytes: -1})
	defer st.Close()
	r := st.NewLogReader()
	defer r.Close()
	rt := stm.New()
	var ws writeScratch
	const records = 3000
	var got []byte
	for i := int64(0); i < records; i++ {
		logTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, i, i) })
		if i%40 == 0 {
			if err := st.Sync(); err != nil { // writes out and rotates
				t.Fatal(err)
			}
		}
		if i%97 == 0 {
			got = append(got, readAll(t, r, int64(len(got)), 300)...)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	got = append(got, readAll(t, r, int64(len(got)), 300)...)
	recs := walkRecords(t, got)
	if len(recs) != records {
		t.Fatalf("read %d records, want %d", len(recs), records)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].stamp <= recs[i-1].stamp {
			t.Fatalf("record %d out of order", i)
		}
	}
	st.w.mu.Lock()
	sealed := len(st.w.sealed)
	st.w.mu.Unlock()
	if sealed < 8 {
		t.Fatalf("%d sealed segments, want at least 8", sealed)
	}

	// Hold the first segment open, then truncate every sealed one: the
	// positions in them are gone, for the holder too, and the active
	// segment still reads.
	held := st.NewLogReader()
	defer held.Close()
	first, err := held.Read(nil, 0, 1)
	if err != nil || len(first) == 0 {
		t.Fatalf("first frame: %d bytes, %v", len(first), err)
	}
	st.w.truncateBelow(math.MaxUint64)
	for _, rd := range []*LogReader{held, st.NewLogReader()} {
		if _, err := rd.Read(nil, int64(len(first)), 1); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Read in a removed segment = %v, want ErrTruncated", err)
		}
	}
	if r.Has(0) || !r.Has(r.End()) {
		t.Fatalf("after truncation Has(0) = %v, Has(end) = %v; want false, true", r.Has(0), r.Has(r.End()))
	}
	st.w.mu.Lock()
	headPos := st.w.head.pos
	if st.w.head.path == "" { // just rotated: no active segment yet
		headPos = st.w.flushedLSN
	}
	st.w.mu.Unlock()
	if tail := readAll(t, r, headPos, 1<<20); !bytes.Equal(tail, got[headPos:]) {
		t.Fatal("the active segment reads different bytes after truncation")
	}
}
