package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/stm"
	"repro/internal/thashmap"
)

// The index is exercised here on its own, over bare nodes that are on no
// skip list: its contract — one bucket orec guards a chain threaded
// through the nodes — does not depend on the rest of the map.

func newTestIndex(buckets int) (*stm.Runtime, *index[int64, int64]) {
	ix := newIndex[int64, int64](thashmap.Hash64, buckets)
	return stm.New(), &ix
}

// keyed mints a fresh node the way insertTx does; an index node is never
// linked twice, so every insertion in these tests gets its own.
func keyed(k, v int64) *node[int64, int64] {
	n := newNode[int64, int64](1)
	n.key, n.val = k, v
	return n
}

func insertNode(rt *stm.Runtime, ix *index[int64, int64], n *node[int64, int64]) {
	_ = rt.Atomic(func(tx *stm.Tx) error {
		ix.insertTx(tx, n)
		return nil
	})
}

func (ix *index[K, V]) sizeSlow() int {
	n := 0
	ix.forEachSlow(func(int, *node[K, V]) bool { n++; return true })
	return n
}

func TestIndexBasic(t *testing.T) {
	rt, ix := newTestIndex(17)
	a := keyed(1, 10)
	_ = rt.Atomic(func(tx *stm.Tx) error {
		if got := ix.getTx(tx, 1); got != nil {
			t.Error("empty index returned a node")
		}
		ix.insertTx(tx, a)
		if got := ix.getTx(tx, 1); got != a {
			t.Errorf("getTx = %p, want %p", got, a)
		}
		if got := ix.removeTx(tx, 1, ix.hash(1)); got != a {
			t.Errorf("removeTx of present key = %p, want %p", got, a)
		}
		if got := ix.removeTx(tx, 1, ix.hash(1)); got != nil {
			t.Errorf("removeTx of absent key = %p, want nil", got)
		}
		return nil
	})
	if got := ix.sizeSlow(); got != 0 {
		t.Errorf("sizeSlow = %d, want 0", got)
	}
}

func TestIndexIdentityPreserved(t *testing.T) {
	// The point of the index: it routes a key to the very node that was
	// linked, through however long a chain.
	rt, ix := newTestIndex(1) // single chain
	nodes := make([]*node[int64, int64], 10)
	_ = rt.Atomic(func(tx *stm.Tx) error {
		for k := range nodes {
			nodes[k] = keyed(int64(k), 0)
			ix.insertTx(tx, nodes[k])
		}
		return nil
	})
	_ = rt.Atomic(func(tx *stm.Tx) error {
		for k := range nodes {
			if got := ix.getTx(tx, int64(k)); got != nodes[k] {
				t.Errorf("key %d: node identity lost", k)
			}
		}
		return nil
	})
}

func TestIndexChainRemoval(t *testing.T) {
	rt, ix := newTestIndex(1)
	_ = rt.Atomic(func(tx *stm.Tx) error {
		for k := int64(0); k < 5; k++ {
			ix.insertTx(tx, keyed(k, k))
		}
		return nil
	})
	// Remove middle, head-of-chain (most recent prepend), then tail.
	for _, k := range []int64{2, 4, 0} {
		var got *node[int64, int64]
		_ = rt.Atomic(func(tx *stm.Tx) error {
			got = ix.removeTx(tx, k, ix.hash(k))
			return nil
		})
		if got == nil || got.key != k {
			t.Fatalf("removeTx(%d) = %v", k, got)
		}
	}
	want := map[int64]bool{1: true, 3: true}
	count := 0
	ix.forEachSlow(func(_ int, n *node[int64, int64]) bool {
		count++
		if !want[n.key] || n.val != n.key {
			t.Errorf("unexpected survivor %d -> %d", n.key, n.val)
		}
		return true
	})
	if count != 2 {
		t.Errorf("%d survivors, want 2", count)
	}
}

func TestIndexRollback(t *testing.T) {
	rt, ix := newTestIndex(17)
	boom := errors.New("boom")
	err := rt.Atomic(func(tx *stm.Tx) error {
		ix.insertTx(tx, keyed(9, 9))
		return boom
	})
	if err != boom {
		t.Fatalf("err = %v", err)
	}
	if got := ix.sizeSlow(); got != 0 {
		t.Errorf("rollback leaked %d nodes", got)
	}
}

func TestIndexConcurrent(t *testing.T) {
	rt, ix := newTestIndex(31)
	const goroutines = 8
	const perG = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < perG; i++ {
				k := base*perG + i
				var n *node[int64, int64]
				_ = rt.Atomic(func(tx *stm.Tx) error {
					n = keyed(k, k) // a retry must mint a fresh node
					ix.insertTx(tx, n)
					return nil
				})
				_ = rt.Atomic(func(tx *stm.Tx) error {
					if got := ix.getTx(tx, k); got != n {
						t.Errorf("key %d: wrong node", k)
					}
					return nil
				})
			}
		}(int64(g))
	}
	wg.Wait()
	if got := ix.sizeSlow(); got != goroutines*perG {
		t.Errorf("sizeSlow = %d, want %d", got, goroutines*perG)
	}
}

func TestIndexPanicsOnBadBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("newIndex with -1 buckets did not panic")
		}
	}()
	newIndex[int64, int64](thashmap.Hash64, -1)
}

func TestIndexFastHitAndMiss(t *testing.T) {
	rt, ix := newTestIndex(17)
	a := keyed(1, 10)
	insertNode(rt, ix, a)

	if n, ok := ix.getFast(1); !ok || n != a {
		t.Errorf("getFast(present) = (%p, %v), want (%p, true)", n, ok, a)
	}
	// A validated miss is an answer, not a fallback: the bucket's orec
	// proved the key absent for the whole walk.
	if n, ok := ix.getFast(2); !ok || n != nil {
		t.Errorf("getFast(absent) = (%p, %v), want (nil, true)", n, ok)
	}
}

func TestIndexFastFailsUnderWriterLock(t *testing.T) {
	rt, ix := newTestIndex(1) // single bucket: the write below locks every key's orec
	_ = rt.Atomic(func(tx *stm.Tx) error {
		ix.insertTx(tx, keyed(1, 10))
		if _, ok := ix.getFast(1); ok {
			t.Error("fast read answered while the bucket orec was held")
		}
		return nil
	})
}

func TestIndexFastHookForcedInvalidation(t *testing.T) {
	rt, ix := newTestIndex(1)
	insertNode(rt, ix, keyed(1, 10))
	b := keyed(2, 20)

	// The hook fires after the chain walk and before revalidation —
	// committing a write there deterministically forces the torn-read
	// case the post-walk Valid check exists for.
	fired := 0
	setFastWalkHook(func() {
		fired++
		_ = rt.Atomic(func(tx *stm.Tx) error {
			ix.removeTx(tx, 1, ix.hash(1))
			ix.insertTx(tx, b)
			return nil
		})
	})
	defer setFastWalkHook(nil)

	if _, ok := ix.getFast(1); ok {
		t.Error("fast read validated across a concurrent commit")
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}

	setFastWalkHook(nil)
	// With the writer gone the retry validates and sees the new state.
	if n, ok := ix.getFast(2); !ok || n != b {
		t.Errorf("getFast(2) after invalidation = (%p, %v), want (%p, true)", n, ok, b)
	}
	if n, ok := ix.getFast(1); !ok || n != nil {
		t.Errorf("getFast(1) after removal = (%p, %v), want (nil, true)", n, ok)
	}
}

func TestIndexPrefetch(t *testing.T) {
	rt, ix := newTestIndex(17)
	a := keyed(1, 10)
	insertNode(rt, ix, a)
	if got := ix.prefetch(1); got != a {
		t.Errorf("prefetch(present) = %p, want %p", got, a)
	}
	if got := ix.prefetch(2); got != nil {
		t.Errorf("prefetch(absent) = %p, want nil", got)
	}
}

// The abort-ABA window: a transaction that aborts restores both the
// chain images (undo log) and the bucket orec's pre-acquire word, so
// after an abort the orec word is bit-identical to what a concurrent
// fast walk sampled. That restore is what keeps aborts invisible to
// optimistic readers — but it is only sound because a later COMMIT on
// the same orec always releases at a fresh clock stamp, never reusing
// a version a reader may have sampled before the abort. These tests
// pin both halves deterministically with the fast-walk hook.

// errInjected aborts the hook's first transaction after its writes.
var errInjected = errors.New("injected abort")

// abortRemove runs one transaction that unlinks key k and then aborts,
// exercising undo of both the splice and the orec word.
func abortRemove(t *testing.T, rt *stm.Runtime, ix *index[int64, int64], k int64) {
	t.Helper()
	if err := rt.Atomic(func(tx *stm.Tx) error {
		if ix.removeTx(tx, k, ix.hash(k)) == nil {
			t.Errorf("removeTx(%d) found nothing to remove", k)
		}
		return errInjected
	}); !errors.Is(err, errInjected) {
		t.Fatalf("aborting txn returned %v, want errInjected", err)
	}
}

func TestIndexFastAbortRestoresSampledWord(t *testing.T) {
	rt, ix := newTestIndex(1)
	a := keyed(1, 10)
	insertNode(rt, ix, a)

	// The hook fires between the walk and revalidation: the abort-only
	// interleaving must leave the sample valid — the undo restored the
	// chain to exactly what the walk saw, so failing the read here
	// would be pure pessimism (and would make every abort a fast-path
	// invalidation storm).
	fired := 0
	setFastWalkHook(func() {
		fired++
		abortRemove(t, rt, ix, 1)
	})
	defer setFastWalkHook(nil)

	if n, ok := ix.getFast(1); !ok || n != a {
		t.Errorf("fast read across an abort = (%p, %v), want validated (%p, true)", n, ok, a)
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}
}

func TestIndexFastCommitAfterAbortInvalidates(t *testing.T) {
	rt, ix := newTestIndex(1)
	insertNode(rt, ix, keyed(1, 10))
	b := keyed(1, 20)

	// The regression half: abort restores the sampled word, then a
	// commit on the same bucket replaces the chain. If the commit's
	// release word could ever collide with the restored (sampled) word
	// — say, a version counter reset by the abort — the walk's stale
	// observation would validate. The commit must release at a fresh
	// clock stamp, so the sample fails.
	fired := 0
	setFastWalkHook(func() {
		fired++
		abortRemove(t, rt, ix, 1)
		if err := rt.Atomic(func(tx *stm.Tx) error {
			if ix.removeTx(tx, 1, ix.hash(1)) == nil {
				t.Error("committing txn found key 1 missing (abort undo lost the node)")
			}
			ix.insertTx(tx, b)
			return nil
		}); err != nil {
			t.Errorf("committing txn: %v", err)
		}
	})
	defer setFastWalkHook(nil)

	if _, ok := ix.getFast(1); ok {
		t.Error("fast read validated across abort-then-commit: commit reused a sampled orec word")
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}

	setFastWalkHook(nil)
	// The post-commit state is the committed one, not the aborted one.
	if n, ok := ix.getFast(1); !ok || n != b {
		t.Errorf("fast read after the dust settled = (%p, %v), want (%p, true)", n, ok, b)
	}
}

// TestChainDepths checks the chain-depth helper on tables whose chains
// are known exactly: one bucket holds every key on one chain, so a hit
// reads (n+1)/2 nodes on average and a miss all n; with a bucket per key
// and an identity hash, every probe reads at most one node.
func TestChainDepths(t *testing.T) {
	const n = 100
	var absent []int64
	for k := int64(n); k < 2*n; k++ {
		absent = append(absent, k)
	}
	for _, c := range []struct {
		buckets         int
		perHit, perMiss float64
	}{
		{1, (n + 1) / 2.0, n},
		{2 * n, 1, 0},
	} {
		m := New[int64, int64](lessInt64, func(k int64) uint64 { return uint64(k) }, Config{Buckets: c.buckets})
		for k := int64(0); k < n; k++ {
			m.Insert(k, k)
		}
		if hit, miss := chainDepths(m, absent); hit != c.perHit || miss != c.perMiss {
			t.Errorf("%d buckets: %.2f nodes per hit, %.2f per miss; want %.2f and %.2f",
				c.buckets, hit, miss, c.perHit, c.perMiss)
		}
	}
}
