package core

import (
	"testing"
)

// collectSnapshot runs SnapshotChunks and returns every emitted pair.
func collectSnapshot(t *testing.T, m *Map[int64, int64], chunkSize int) map[int64]int64 {
	t.Helper()
	got := make(map[int64]int64)
	err := m.SnapshotChunks(chunkSize, func(_ uint64, pairs []Pair[int64, int64]) error {
		for _, p := range pairs {
			if _, dup := got[p.Key]; dup {
				t.Fatalf("snapshot emitted key %d twice", p.Key)
			}
			got[p.Key] = p.Val
		}
		return nil
	})
	if err != nil {
		t.Fatalf("SnapshotChunks: %v", err)
	}
	return got
}

func TestSnapshotChunksBasic(t *testing.T) {
	m := newTestMap(t, Config{})
	want := make(map[int64]int64)
	for k := int64(0); k < 100; k++ {
		m.Insert(k, k*10)
		want[k] = k * 10
	}
	for _, chunkSize := range []int{1, 3, 7, 512} {
		got := collectSnapshot(t, m, chunkSize)
		if len(got) != len(want) {
			t.Fatalf("chunkSize %d: snapshot has %d keys, want %d", chunkSize, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("chunkSize %d: key %d = %d, want %d", chunkSize, k, got[k], v)
			}
		}
	}
}

// TestSnapshotChunksResumeOnDeletedRun is the regression test for a
// silent key drop: when a chunk's scan bound lands on a logically
// deleted node for key k whose live reinserted node (positioned after
// the deleted same-key nodes) was not yet scanned, resuming at
// ceilNodeTx(k) returns that live node via the index — and an
// unconditional advance-past-equal-cursor step would skip it, so the
// pair was never emitted. The resume step must only advance past an
// equal-key ceil node when the previous chunk actually emitted it.
func TestSnapshotChunksResumeOnDeletedRun(t *testing.T) {
	m := newTestMap(t, Config{})

	m.Insert(1, 10)
	m.Insert(2, 0)
	// Pile up snapshotScanBound logically deleted nodes for key 2 in
	// front of its live node: each remove+insert round marks the live
	// node deleted in place and stitches the replacement after it.
	for i := 0; i < snapshotScanBound; i++ {
		removeStitched(t, m, 2)
		m.Insert(2, int64(20+i))
	}
	wantVal := int64(20 + snapshotScanBound - 1)

	// chunkSize 1: chunk 1 emits key 1 and fills up; chunk 2 scans
	// exactly the snapshotScanBound deleted key-2 nodes and exhausts its
	// scan bound with an empty buffer, ending on a deleted node for key
	// 2; chunk 3 must emit the live key-2 node.
	got := collectSnapshot(t, m, 1)
	if len(got) != 2 {
		t.Fatalf("snapshot has %d keys, want 2 (got %v)", len(got), got)
	}
	if got[1] != 10 {
		t.Errorf("key 1 = %d, want 10", got[1])
	}
	if got[2] != wantVal {
		t.Errorf("key 2 = %d, want %d (live reinserted node dropped)", got[2], wantVal)
	}
}

// removeStitched removes k while a slow-path range query registered
// just before is in flight, so the removed node stays stitched on the
// query's deferred list; the query finishes when the test does.
func removeStitched(t *testing.T, m *Map[int64, int64], k int64) {
	t.Helper()
	op := startRange(m)
	t.Cleanup(func() { m.rqc.afterRange(m, op) })
	before := m.StitchedSlow() - m.SizeSlow()
	if !m.Remove(k) {
		t.Fatalf("Remove(%d) found the key absent", k)
	}
	if got := m.StitchedSlow() - m.SizeSlow(); got != before+1 {
		t.Fatalf("Remove(%d) behind a slow range: %d deleted nodes stitched, want %d", k, got, before+1)
	}
}

// TestSnapshotChunksDeletedRunNoReinsert covers the sibling resume case:
// the chunk ends on a deleted node for a key with no live successor, so
// the next chunk's ceil lands strictly past the cursor and must not be
// skipped.
func TestSnapshotChunksDeletedRunNoReinsert(t *testing.T) {
	m := newTestMap(t, Config{})

	m.Insert(1, 10)
	m.Insert(3, 30)
	m.Insert(2, 0)
	for i := 0; i < snapshotScanBound-1; i++ {
		removeStitched(t, m, 2)
		m.Insert(2, int64(20+i))
	}
	removeStitched(t, m, 2) // key 2 ends as a run of deleted nodes, no live one

	got := collectSnapshot(t, m, 1)
	if len(got) != 2 || got[1] != 10 || got[3] != 30 {
		t.Fatalf("snapshot = %v, want {1:10 3:30}", got)
	}
}
