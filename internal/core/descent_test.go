package core

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

var errHeld = errors.New("held transaction rolled back")

// newDescentMap builds the map these tests hold transactions open on.
// A removal unstitches in its own transaction.
func newDescentMap(t *testing.T, maxLevel int) *Map[int64, int64] {
	return newTestMap(t, Config{MaxLevel: maxLevel, Buckets: 131071})
}

// holdTx runs body in a transaction on its own goroutine and holds the
// attempt open after body returns: its writes stay in place and its
// orecs locked, as a concurrent transaction's are mid-flight. release
// rolls the attempt back and waits for that. The held transaction must
// not share an index bucket with key, which the operation under test
// reads before its descent: that read would abort it until release.
func holdTx(t *testing.T, m *Map[int64, int64], held, key int64, body func(op *Txn[int64, int64])) (release func()) {
	t.Helper()
	if m.index.bucketFor(held) == m.index.bucketFor(key) {
		t.Fatalf("keys %d and %d share an index bucket", held, key)
	}
	holding := make(chan struct{})
	resume := make(chan struct{})
	done := make(chan error)
	go func() {
		h := m.NewHandle()
		defer h.Close()
		var once sync.Once
		done <- h.Atomic(func(op *Txn[int64, int64]) error {
			body(op)
			once.Do(func() { close(holding) })
			<-resume
			return errHeld
		})
	}()
	<-holding
	return func() {
		close(resume)
		if err := <-done; err != errHeld {
			t.Errorf("held transaction returned %v, want its rollback", err)
		}
	}
}

// onNextDescent installs a descent hook that fires once: it copies the
// predecessors the raw descent recorded into h.preds, then calls fn.
// The returned function reports the copy and removes the hook.
func onNextDescent(t *testing.T, h *Handle[int64, int64], fn func()) (recorded func() []*node[int64, int64]) {
	t.Cleanup(func() { setDescentHook(nil) })
	var once sync.Once
	var preds []*node[int64, int64]
	setDescentHook(func() {
		once.Do(func() {
			preds = append(preds, h.preds...)
			fn()
		})
	})
	return func() []*node[int64, int64] {
		setDescentHook(nil)
		return preds
	}
}

// rawNode returns the node holding k on level 0, or nil; the map must
// be quiescent.
func rawNode(m *Map[int64, int64], k int64) *node[int64, int64] {
	for n := m.head.next0.Raw(); n != m.tail; n = n.next0.Raw() {
		if n.key == k {
			return n
		}
	}
	return nil
}

// checkClean fails t unless m passes CheckInvariants and holds exactly
// the keys want, in order.
func checkClean(t *testing.T, m *Map[int64, int64], want ...int64) {
	t.Helper()
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	var got []int64
	for k := range m.All() {
		got = append(got, k)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
}

// TestDescentFallback drives the in-transaction check of a raw descent
// into failing, and the search into findPreds. A transaction that
// commits between the descent and the check aborts the attempt (its
// stamp postdates the attempt's start), so the check fails only when the
// descent saw writes that then roll back. Each case holds a concurrent
// transaction open across the descent, rolls it back from the descent
// hook, and asserts the insert's result, that findPreds rewrote the
// predecessor the descent recorded at the failing level (bracketsTx
// leaves h.preds as recorded), and a clean CheckInvariants.
func TestDescentFallback(t *testing.T) {
	// (a) Key 20's removal is in flight, so the descent records 10 as
	// 25's level-0 predecessor; the rollback puts 20 back between 10 and
	// 30, and the pair (10, 20) no longer brackets 25: !before(s, k).
	t.Run("a/level0", func(t *testing.T) {
		m := newDescentMap(t, 1)
		h := m.NewHandle()
		for _, k := range []int64{10, 20, 30} {
			h.Insert(k, k)
		}
		release := holdTx(t, m, 20, 25, func(op *Txn[int64, int64]) { op.Remove(20) })
		recorded := onNextDescent(t, h, release)
		if !h.Insert(25, 25) {
			t.Fatal("Insert(25) reported the key present")
		}
		if got := recorded(); got == nil || got[0] != rawNode(m, 10) {
			t.Fatalf("descent recorded %v at level 0, want key 10", got)
		}
		if h.preds[0] != rawNode(m, 20) {
			t.Fatal("fallback did not run: level-0 predecessor is not key 20")
		}
		checkClean(t, m, 10, 20, 25, 30)

		// A query checks the same level-0 pair: Ceil(22) must not answer
		// 20, which orders before it.
		release = holdTx(t, m, 20, 22, func(op *Txn[int64, int64]) { op.Remove(20) })
		recorded = onNextDescent(t, h, release)
		if k, _, ok := h.Ceil(22); !ok || k != 25 {
			t.Fatalf("Ceil(22) = %d, %v, want 25", k, ok)
		}
		if got := recorded(); got == nil || got[0] != rawNode(m, 10) {
			t.Fatalf("descent recorded %v at level 0, want key 10", got)
		}
		if h.preds[0] != rawNode(m, 20) {
			t.Fatal("fallback did not run: Ceil's level-0 predecessor is not key 20")
		}
		checkClean(t, m, 10, 20, 25, 30)
	})

	// (b) The same at level 1: x (height 2) has its removal in flight,
	// and y (height 1) follows it on level 0, so the level-0 pair (y,
	// y.next) holds while the level-1 pair recorded without x does not.
	// The inserted node's height is random; the case repeats until it is
	// 2, so the check reaches level 1.
	t.Run("b/level1", func(t *testing.T) {
		for trial := 0; trial < 200; trial++ {
			m := newDescentMap(t, 2)
			h := m.NewHandle()
			var keys []int64
			for k := int64(10); k <= 400; k += 10 {
				h.Insert(k, k)
				keys = append(keys, k)
			}
			var x, y *node[int64, int64]
			for n := m.head.next0.Raw(); n != m.tail; n = n.next0.Raw() {
				if s := n.next0.Raw(); n.height() == 2 && s != m.tail && s.height() == 1 {
					x, y = n, s
					break
				}
			}
			if x == nil || m.index.bucketFor(x.key) == m.index.bucketFor(y.key+5) {
				continue
			}
			k := y.key + 5
			release := holdTx(t, m, x.key, k, func(op *Txn[int64, int64]) { op.Remove(x.key) })
			recorded := onNextDescent(t, h, release)
			if !h.Insert(k, k) {
				t.Fatalf("Insert(%d) reported the key present", k)
			}
			got := recorded()
			keys = append(keys, k)
			slices.Sort(keys)
			checkClean(t, m, keys...)
			if rawNode(m, k).height() < 2 {
				continue
			}
			if got == nil || got[0] != y || got[1] == x {
				t.Fatalf("descent recorded %v, want y at level 0 and not x at level 1", got)
			}
			if h.preds[1] != x {
				t.Fatal("fallback did not run: level-1 predecessor is not x")
			}
			return
		}
		t.Fatal("no trial reached the level-1 check")
	})

	// (c) A recorded predecessor that is not linked in the snapshot: key
	// 20's insert is in flight, so the descent records 20 as 25's
	// predecessor; the rollback unlinks it, and 20's frozen link still
	// names 30, but 30's prev is 10: s.prev(l) == p fails.
	t.Run("c/unlinkedPred", func(t *testing.T) {
		m := newDescentMap(t, 1)
		h := m.NewHandle()
		for _, k := range []int64{10, 30} {
			h.Insert(k, k)
		}
		release := holdTx(t, m, 20, 25, func(op *Txn[int64, int64]) { op.Insert(20, 20) })
		recorded := onNextDescent(t, h, release)
		if !h.Insert(25, 25) {
			t.Fatal("Insert(25) reported the key present")
		}
		if got := recorded(); got == nil || got[0].key != 20 {
			t.Fatalf("descent recorded %v at level 0, want key 20", got)
		}
		if h.preds[0] != rawNode(m, 10) {
			t.Fatal("fallback did not run: level-0 predecessor is not key 10")
		}
		checkClean(t, m, 10, 25, 30)
	})
}
