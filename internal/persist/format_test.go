package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestFormatPinned recovers a copy of testdata/format, a directory an
// earlier build of the engine wrote: a snapshot of keys 1..12 in three
// four-pair chunks and an empty last one, and one WAL segment holding
// the twelve puts the snapshot reflects, then a put of 13, a delete of
// 2, a replacing put of 5 (delete and put in one record) and a batch
// that puts 20 and deletes 3. The recovered pairs must be that state,
// and today's encoder must write the snapshot's chunks back to the same
// bytes, so a change to the on-disk format (SKHSNP1, SKHWAL1) fails
// here.
func TestFormatPinned(t *testing.T) {
	src := filepath.Join("testdata", "format")
	dir := t.TempDir()
	names, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var snap []byte
	for _, e := range names {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Ext(e.Name()) == ".snap" {
			snap = data
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err := Open[int64, int64](Options{Dir: dir, SnapshotBytes: -1}, int64Less, Int64Codec(), Int64Codec())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	want := []KV[int64, int64]{{Key: 1, Val: 10}, {Key: 4, Val: 40}, {Key: 5, Val: 55},
		{Key: 6, Val: 60}, {Key: 7, Val: 70}, {Key: 8, Val: 80}, {Key: 9, Val: 90}, {Key: 10, Val: 100},
		{Key: 11, Val: 110}, {Key: 12, Val: 120}, {Key: 13, Val: 130}, {Key: 20, Val: 200}}
	if got := st.TakeRecovered(); !slices.Equal(got, want) {
		t.Fatalf("recovered %v\nwant %v", got, want)
	}
	if info := st.Recovered(); info.SnapshotEntries != 12 || info.Records != 16 || info.Segments != 1 || info.TornTail {
		t.Fatalf("recovery info %+v", info)
	}

	// Read the chunks back and encode them again.
	var chunks []testChunk
	c := snapCheck{path: "snap"}
	err = c.add(snap, func(off int64, stamp, count uint64, body []byte) error {
		ch := testChunk{stamp: stamp}
		err := decodeChunk("snap", off, body, count, Int64Codec(), Int64Codec(), func(k, v int64) error {
			ch.kvs = append(ch.kvs, KV[int64, int64]{Key: k, Val: v})
			return nil
		})
		chunks = append(chunks, ch)
		return err
	})
	if err == nil {
		err = c.end()
	}
	if err != nil || len(chunks) != 4 {
		t.Fatalf("snapshot holds %d chunks (%v), want 4", len(chunks), err)
	}
	if !bytes.Equal(encodeTestSnapshot(t, chunks), snap) {
		t.Fatal("the encoder writes the pinned chunks as other bytes")
	}
}
