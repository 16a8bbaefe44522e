package persist

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// testOp is one WAL op of a hand-built record: a put of k→v, or a delete
// of k when del is set.
type testOp struct {
	k, v int64
	del  bool
}

// testRecord is one hand-built WAL record: every op commits at stamp.
type testRecord struct {
	stamp uint64
	ops   []testOp
}

// testChunk is one hand-built snapshot chunk observed at stamp.
type testChunk struct {
	stamp uint64
	kvs   []KV[int64, int64]
}

// writeTestSegment writes records as WAL segment seq of dir, framed
// exactly as the engine frames them.
func writeTestSegment(t *testing.T, dir string, seq uint64, recs []testRecord) {
	t.Helper()
	ic := Int64Codec()
	buf := append([]byte(nil), walMagic...)
	for _, r := range recs {
		var header int
		buf, header = beginFrame(buf)
		buf = binary.LittleEndian.AppendUint64(buf, r.stamp)
		buf = binary.AppendUvarint(buf, uint64(len(r.ops)))
		for _, op := range r.ops {
			if op.del {
				buf = append(buf, opDel)
				buf = ic.Append(buf, op.k)
				continue
			}
			buf = append(buf, opPut)
			buf = ic.Append(buf, op.k)
			buf = ic.Append(buf, op.v)
		}
		buf = finishFrame(buf, header)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(seq)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// encodeTestSnapshot encodes chunks as one snapshot file with the
// store's own encoder.
func encodeTestSnapshot(tb testing.TB, chunks []testChunk) []byte {
	tb.Helper()
	var b bytes.Buffer
	_, _, err := WriteSnapshot(&b, func(_ int, emit func(uint64, []KV[int64, int64]) error) error {
		for _, c := range chunks {
			if err := emit(c.stamp, c.kvs); err != nil {
				return err
			}
		}
		return nil
	}, Int64Codec(), Int64Codec())
	if err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// writeTestSnapshot writes chunks as sealed snapshot seq of dir.
func writeTestSnapshot(t *testing.T, dir string, seq uint64, chunks []testChunk) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, snapName(seq)), encodeTestSnapshot(t, chunks), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverFoldOrder pins the tie-breaks of recovery's fold on a
// directory built by hand: one snapshot and two WAL segments whose
// records are out of stamp order across the files. Each key must end at
// its last op in (stamp, snapshot before WAL, file order, op order).
func TestRecoverFoldOrder(t *testing.T) {
	dir := t.TempDir()
	writeTestSnapshot(t, dir, 3, []testChunk{
		{stamp: 100, kvs: []KV[int64, int64]{{Key: 1, Val: 10}, {Key: 2, Val: 20}, {Key: 3, Val: 30}}},
		{stamp: 200, kvs: []KV[int64, int64]{{Key: 4, Val: 40}}},
	})
	seg1 := []testRecord{
		{stamp: 100, ops: []testOp{{k: 1, v: 11}}},                    // (a) at the chunk stamp: overrides
		{stamp: 99, ops: []testOp{{k: 2, v: 21}}},                     // (b) below the chunk stamp: ignored
		{stamp: 120, ops: []testOp{{k: 3, del: true}}},                // (c) deletes a snapshot key
		{stamp: 50, ops: []testOp{{k: 5, v: 50}}},                     // (d) put → del → put, below every chunk
		{stamp: 60, ops: []testOp{{k: 5, del: true}}},                 //
		{stamp: 300, ops: []testOp{{k: 6, v: 1}}},                     // (e) equal stamps across segments:
		{stamp: 310, ops: []testOp{{k: 7, v: 1}}},                     //     the later segment wins
		{stamp: 320, ops: []testOp{{k: 8, del: true}}},                //
		{stamp: 95, ops: []testOp{{k: 9, v: 2}}},                      // stamp order beats file order
		{stamp: 200, ops: []testOp{{k: 4, del: true}, {k: 4, v: 44}}}, // (f) Put's record, at the chunk stamp
		{stamp: 400, ops: []testOp{{k: 11, del: true}, {k: 11, v: 5}}},
		{stamp: 410, ops: []testOp{{k: 12, v: 1}, {k: 12, del: true}}},
	}
	seg2 := []testRecord{
		{stamp: 70, ops: []testOp{{k: 5, v: 70}}},
		{stamp: 300, ops: []testOp{{k: 6, v: 2}}},
		{stamp: 310, ops: []testOp{{k: 7, del: true}}},
		{stamp: 320, ops: []testOp{{k: 8, v: 3}}},
		{stamp: 90, ops: []testOp{{k: 9, v: 1}}},
	}
	want := map[int64]int64{1: 11, 2: 20, 4: 44, 5: 70, 6: 2, 8: 3, 9: 2, 11: 5}
	// Enough one-record (del k, put k) and (put k, del k) pairs at one
	// stamp, in shuffled key order, that an unstable sort without seq
	// scrambles some of them.
	var bulk []testOp
	for _, i := range rand.New(rand.NewPCG(1, 2)).Perm(300) {
		k := int64(100 + i)
		if k%2 == 0 {
			bulk = append(bulk, testOp{k: k, del: true}, testOp{k: k, v: -k})
			want[k] = -k
		} else {
			bulk = append(bulk, testOp{k: k, v: -k}, testOp{k: k, del: true})
		}
	}
	seg2 = append(seg2, testRecord{stamp: 500, ops: bulk})
	writeTestSegment(t, dir, 1, seg1)
	writeTestSegment(t, dir, 2, seg2)

	st, err := Open[int64, int64](Options{Dir: dir}, int64Less, Int64Codec(), Int64Codec())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	info := st.Recovered()
	if info.SnapshotEntries != 4 || info.Records != len(seg1)+len(seg2) || info.Segments != 2 ||
		info.MaxStamp != 500 || info.Entries != len(want) || info.TornTail {
		t.Fatalf("recovery info %+v", info)
	}
	got := st.TakeRecovered()
	if !slices.IsSortedFunc(got, func(a, b KV[int64, int64]) int { return cmp.Compare(a.Key, b.Key) }) {
		t.Fatalf("TakeRecovered is not ascending: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key == got[i].Key {
			t.Fatalf("TakeRecovered repeats key %d", got[i].Key)
		}
	}
	if len(got) != len(want) {
		t.Errorf("recovered %d pairs, want %d", len(got), len(want))
	}
	for _, kv := range got {
		if v, ok := want[kv.Key]; !ok || v != kv.Val {
			t.Errorf("key %d recovered as %d, want %d (present %v)", kv.Key, kv.Val, v, ok)
		}
	}
}

// TestRecoverSnapshotOutOfKeyOrder: recovery merges the log ops into
// the snapshot's entries, which WriteSnapshot writes in key order; a
// snapshot whose chunks are not in key order still folds to the same
// pairs, ascending.
func TestRecoverSnapshotOutOfKeyOrder(t *testing.T) {
	dir := t.TempDir()
	writeTestSnapshot(t, dir, 2, []testChunk{
		{stamp: 100, kvs: []KV[int64, int64]{{Key: 5, Val: 50}, {Key: 7, Val: 70}}},
		{stamp: 110, kvs: []KV[int64, int64]{{Key: 1, Val: 10}, {Key: 3, Val: 30}}},
	})
	writeTestSegment(t, dir, 1, []testRecord{
		{stamp: 105, ops: []testOp{{k: 5, v: 51}, {k: 3, v: 31}, {k: 4, v: 40}}},
		{stamp: 120, ops: []testOp{{k: 1, del: true}}},
	})
	st, err := Open[int64, int64](Options{Dir: dir}, int64Less, Int64Codec(), Int64Codec())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	want := []KV[int64, int64]{{Key: 3, Val: 30}, {Key: 4, Val: 40}, {Key: 5, Val: 51}, {Key: 7, Val: 70}}
	if got := st.TakeRecovered(); !slices.Equal(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestRecoverRefusesAbsurdCounts: a CRC-valid record or chunk whose count
// cannot fit its bytes is corruption, refused before it sizes anything.
func TestRecoverRefusesAbsurdCounts(t *testing.T) {
	frame := func(magic []byte, payload ...[]byte) []byte {
		buf, header := beginFrame(append([]byte(nil), magic...))
		for _, p := range payload {
			buf = append(buf, p...)
		}
		return finishFrame(buf, header)
	}
	huge := binary.AppendUvarint(nil, 1<<60)
	stamp := binary.LittleEndian.AppendUint64(nil, 7)
	op := append([]byte{opDel}, Int64Codec().Append(nil, 1)...)
	for name, file := range map[string]struct {
		name string
		data []byte
	}{
		"record": {segName(1), frame(walMagic, stamp, huge, op)},
		"chunk":  {snapName(1), frame(snapMagic, []byte{snapTagChunk}, stamp, huge)},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, file.name), file.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open[int64, int64](Options{Dir: dir}, int64Less, Int64Codec(), Int64Codec()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s with an absurd count: Open returned %v, want ErrCorrupt", name, err)
		}
	}
}
