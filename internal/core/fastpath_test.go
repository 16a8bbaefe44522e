package core

import (
	"testing"
)

// TestFastPathHitsAcquireNothing is the PR's core acceptance property:
// on a quiescent map every point read is answered by the optimistic fast
// path — hits accumulate, and no transaction begins, commits, or
// acquires an orec on their behalf.
func TestFastPathHitsAcquireNothing(t *testing.T) {
	m := newTestMap(t, Config{})
	for k := int64(0); k < 128; k++ {
		m.Insert(k, k*10)
	}
	before := m.Runtime().Stats()

	const reads = 512
	for i := 0; i < reads; i++ {
		k := int64(i) % 256 // half the probes miss
		v, ok := m.Lookup(k)
		if k < 128 && (!ok || v != k*10) {
			t.Fatalf("Lookup(%d) = %d,%v want %d,true", k, v, ok, k*10)
		}
		if k >= 128 && ok {
			t.Fatalf("Lookup(%d) reported a phantom key", k)
		}
		if m.Contains(k) != (k < 128) {
			t.Fatalf("Contains(%d) = %v", k, k >= 128)
		}
	}

	d := m.Runtime().Stats().Sub(before)
	if d.FastReadHits != 2*reads {
		t.Errorf("FastReadHits = %d, want %d", d.FastReadHits, 2*reads)
	}
	if d.FastReadFallbacks != 0 {
		t.Errorf("FastReadFallbacks = %d on a quiescent map", d.FastReadFallbacks)
	}
	if d.Commits != 0 || d.Aborts != 0 {
		t.Errorf("fast-path hits ran transactions: commits=%d aborts=%d", d.Commits, d.Aborts)
	}
}

// TestFastPathFallbackMidWalk forces the torn-read schedule
// deterministically: the walk hook commits a conflicting write between
// the fast path's chain walk and its revalidation, so the read must
// detect the change, fall back, and answer through a transaction.
func TestFastPathFallbackMidWalk(t *testing.T) {
	m := newTestMap(t, Config{Buckets: 1}) // one bucket: any write invalidates any probe
	m.Insert(1, 10)

	flips := int64(100)
	hook := func() {
		// Toggle key 2 so every fast walk observes a bucket commit.
		if flips%2 == 0 {
			m.Insert(2, 20)
		} else {
			m.Remove(2)
		}
		flips++
	}
	setFastWalkHook(hook)
	defer setFastWalkHook(nil)

	before := m.Runtime().Stats()
	if v, ok := m.Lookup(1); !ok || v != 10 {
		t.Fatalf("Lookup(1) under forced invalidation = %d,%v want 10,true", v, ok)
	}
	if m.Contains(3) {
		t.Fatal("Contains(3) reported a phantom key under forced invalidation")
	}
	d := m.Runtime().Stats().Sub(before)
	if d.FastReadFallbacks != 2 {
		t.Errorf("FastReadFallbacks = %d, want 2", d.FastReadFallbacks)
	}
	if d.FastReadHits != 0 {
		t.Errorf("FastReadHits = %d under forced invalidation, want 0", d.FastReadHits)
	}
	// Each fallback runs as a read-only transaction (plus the hook's own
	// write transactions); the reads themselves must not have aborted
	// repeatedly — the fallback path commits deterministically.
	if d.ReadOnlyCommits != 2 {
		t.Errorf("ReadOnlyCommits = %d, want 2 (one per fallback)", d.ReadOnlyCommits)
	}

	setFastWalkHook(nil)
	after := m.Runtime().Stats()
	if v, ok := m.Lookup(1); !ok || v != 10 {
		t.Fatalf("Lookup(1) after hook removal = %d,%v", v, ok)
	}
	if d2 := m.Runtime().Stats().Sub(after); d2.FastReadHits != 1 || d2.FastReadFallbacks != 0 {
		t.Errorf("post-hook read: hits=%d fallbacks=%d, want 1,0", d2.FastReadHits, d2.FastReadFallbacks)
	}
}

// TestDisableReadFastPath pins the ablation switch: with the fast path
// off, point reads are transactional and the fast counters stay zero.
func TestDisableReadFastPath(t *testing.T) {
	m := newTestMap(t, Config{DisableReadFastPath: true})
	m.Insert(1, 10)
	before := m.Runtime().Stats()
	if v, ok := m.Lookup(1); !ok || v != 10 {
		t.Fatalf("Lookup(1) = %d,%v want 10,true", v, ok)
	}
	if _, ok := m.Lookup(2); ok {
		t.Fatal("Lookup(2) reported a phantom key")
	}
	d := m.Runtime().Stats().Sub(before)
	if d.FastReadHits != 0 || d.FastReadFallbacks != 0 {
		t.Errorf("fast counters moved with the fast path disabled: hits=%d fallbacks=%d",
			d.FastReadHits, d.FastReadFallbacks)
	}
	if d.ReadOnlyCommits != 2 {
		t.Errorf("ReadOnlyCommits = %d, want 2 (transactional reads)", d.ReadOnlyCommits)
	}
}
