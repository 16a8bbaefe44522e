package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/stm"
	"repro/internal/thashmap"
)

// startRange registers a slow-path range query by hand, returning its op.
func startRange(m *Map[int64, int64]) *rangeOp[int64, int64] {
	var op *rangeOp[int64, int64]
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		op = m.rqc.onRange(tx)
		return nil
	})
	return op
}

func newRQCMap(t *testing.T) *Map[int64, int64] {
	t.Helper()
	return New[int64, int64](lessInt64, thashmap.Hash64, Config{Buckets: 257})
}

func TestRQCVersionsMonotonic(t *testing.T) {
	m := newRQCMap(t)
	var last uint64
	for i := 0; i < 10; i++ {
		op := startRange(m)
		if op.ver <= last {
			t.Fatalf("version %d not greater than %d", op.ver, last)
		}
		last = op.ver
		m.rqc.afterRange(m, op)
	}
}

func TestRQCUpdatesReuseLatestVersion(t *testing.T) {
	m := newRQCMap(t)
	op := startRange(m)
	var seen uint64
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		seen = m.rqc.onUpdate(tx)
		return nil
	})
	if seen != op.ver {
		t.Errorf("onUpdate = %d, want latest range version %d", seen, op.ver)
	}
	m.rqc.afterRange(m, op)
}

func TestRQCImmediateUnstitchWithoutQueries(t *testing.T) {
	m := newRQCMap(t)
	h := m.NewHandle()
	h.Insert(1, 1)
	h.Insert(2, 2)
	h.Remove(1)
	// No slow-path query in flight: the node must be unstitched inside
	// the remove transaction itself (Figure 4 line 23).
	if got := m.StitchedSlow(); got != 1 {
		t.Errorf("stitched = %d, want 1", got)
	}
}

func TestRQCImmediateUnstitchForNewNodes(t *testing.T) {
	// A node inserted after the most recent range query began is not
	// safe for anyone and is unstitched immediately even while the
	// query runs (Figure 4's i_time >= tail.ver case).
	m := newRQCMap(t)
	h := m.NewHandle()
	op := startRange(m)
	h.Insert(5, 5) // iTime == op.ver
	h.Remove(5)
	if got := m.StitchedSlow(); got != 0 {
		t.Errorf("stitched = %d, want 0 (new node not deferrable)", got)
	}
	m.rqc.afterRange(m, op)
}

func TestRQCBackwardPassing(t *testing.T) {
	// Three queries; a node removed under the newest must survive until
	// the oldest finishes, traveling backward through deferred lists.
	m := newRQCMap(t)
	h := m.NewHandle()
	h.Insert(1, 1)
	h.Insert(2, 2)
	h.Insert(3, 3)
	op1 := startRange(m)
	op2 := startRange(m)
	op3 := startRange(m)
	h.Remove(2) // deferred onto op3 (the newest)
	if got := m.StitchedSlow(); got != 3 {
		t.Fatalf("stitched = %d, want 3", got)
	}
	// Finishing the newest passes the node to op2.
	m.rqc.afterRange(m, op3)
	if got := m.StitchedSlow(); got != 3 {
		t.Errorf("after op3: stitched = %d, want 3 (still deferred)", got)
	}
	// Finishing the middle passes it to op1.
	m.rqc.afterRange(m, op2)
	if got := m.StitchedSlow(); got != 3 {
		t.Errorf("after op2: stitched = %d, want 3 (still deferred)", got)
	}
	// Finishing the oldest finally unstitches.
	m.rqc.afterRange(m, op1)
	if got := m.StitchedSlow(); got != 2 {
		t.Errorf("after op1: stitched = %d, want 2", got)
	}
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Error(err)
	}
}

func TestRQCOutOfOrderCompletion(t *testing.T) {
	// Finishing the oldest query first must unstitch its deferred nodes
	// immediately while younger queries keep theirs.
	m := newRQCMap(t)
	h := m.NewHandle()
	for k := int64(1); k <= 4; k++ {
		h.Insert(k, k)
	}
	op1 := startRange(m)
	h.Remove(1) // deferred onto op1
	op2 := startRange(m)
	h.Remove(2) // deferred onto op2
	if got := m.StitchedSlow(); got != 4 {
		t.Fatalf("stitched = %d, want 4", got)
	}
	m.rqc.afterRange(m, op1) // oldest finishes first: node 1 reclaimed
	if got := m.StitchedSlow(); got != 3 {
		t.Errorf("after op1: stitched = %d, want 3", got)
	}
	m.rqc.afterRange(m, op2)
	if got := m.StitchedSlow(); got != 2 {
		t.Errorf("after op2: stitched = %d, want 2", got)
	}
}

func TestSafeNodePredicate(t *testing.T) {
	m := newRQCMap(t)
	h := m.NewHandle()
	h.Insert(10, 10)
	op := startRange(m)
	ver := op.ver
	h.Insert(20, 20) // iTime == ver: NOT safe
	h.Remove(10)     // rTime == ver: safe (removed at/after ver)
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		if !m.isSafe(tx, m.head, ver) || !m.isSafe(tx, m.tail, ver) {
			t.Error("sentinels must always be safe")
		}
		n10 := m.head.next0.Load(tx, &m.head.orec)
		for n10 != m.tail && n10.key != 10 {
			n10 = n10.next0.Load(tx, &n10.orec)
		}
		if n10 == m.tail {
			t.Fatal("node 10 not found stitched")
		}
		if !m.isSafe(tx, n10, ver) {
			t.Error("logically deleted node with rTime >= ver must be safe")
		}
		n20 := m.index.getTx(tx, 20)
		if n20 == nil {
			t.Fatal("node 20 missing from index")
		}
		if m.isSafe(tx, n20, ver) {
			t.Error("node inserted at ver must not be safe")
		}
		return nil
	})
	m.rqc.afterRange(m, op)
}

func TestSlowRangeSeesSnapshotAtVersion(t *testing.T) {
	// A slow-path range must include keys removed after it registered
	// and exclude keys inserted after it registered.
	m := newRQCMap(t)
	h := m.NewHandle()
	for k := int64(0); k < 10; k++ {
		h.Insert(k, k)
	}
	var op *rangeOp[int64, int64]
	var start *node[int64, int64]
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		start = m.ceilNodeTx(tx, h, 0)
		op = m.rqc.onRange(tx)
		return nil
	})
	h.Remove(5)     // removed after linearization: must appear
	h.Insert(50, 1) // inserted after linearization: must not appear
	set := make([]Pair[int64, int64], 0, 16)
	n := start
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		for n != m.tail && !m.less(100, n.key) {
			next := m.nextSafe(tx, n, op.ver)
			set = append(set, Pair[int64, int64]{Key: n.key, Val: n.val})
			n = next
		}
		return nil
	})
	m.rqc.afterRange(m, op)
	if len(set) != 10 {
		t.Fatalf("slow traversal returned %d pairs, want 10: %v", len(set), set)
	}
	for i, p := range set {
		if p.Key != int64(i) {
			t.Errorf("pair %d = %v, want key %d", i, p, i)
		}
	}
}

// TestHandleBufferTransfersToActiveQuery checks that removals behind an
// in-flight slow-path query older than their nodes go on the query's
// deferred list, stay stitched, and are unstitched when it finishes.
func TestHandleBufferTransfersToActiveQuery(t *testing.T) {
	m := newRQCMap(t)
	h := m.NewHandle()
	for k := int64(0); k < 8; k++ {
		h.Insert(k, k)
	}
	op := startRange(m)
	h.Remove(0)
	h.Remove(1)
	if got := m.StitchedSlow(); got != 8 {
		t.Errorf("stitched = %d, want 8 (removals deferred to query)", got)
	}
	if got := deferredKeys(op); !slices.Equal(got, []int64{0, 1}) {
		t.Errorf("deferred list = %v, want [0 1]", got)
	}
	m.rqc.afterRange(m, op)
	if got := m.StitchedSlow(); got != 6 {
		t.Errorf("stitched = %d, want 6 after query completes", got)
	}
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Error(err)
	}
}

// TestRQCCounterLimit pins the guard on the version space node.meta
// keeps: the last version it can hold is handed out, the one after it
// panics with a message naming the limit, before any node could be
// stamped with a version its insertion time cannot store.
func TestRQCCounterLimit(t *testing.T) {
	m := newRQCMap(t)
	m.rqc.counter.Init(maxITime - 1)
	op := startRange(m)
	if op.ver != maxITime {
		t.Fatalf("version %d, want the limit %d", op.ver, maxITime)
	}
	m.rqc.afterRange(m, op)
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "2^57-1") {
			t.Errorf("registering past the limit recovered %v, want a panic naming 2^57-1", r)
		}
	}()
	startRange(m)
	t.Error("registering past the limit did not panic")
}

// deferredKeys lists the keys on op's deferred list, head to tail.
func deferredKeys(op *rangeOp[int64, int64]) []int64 {
	var keys []int64
	for c := op.defHead.Raw(); c != nil; c = c.next.Raw() {
		keys = append(keys, c.n.key)
	}
	return keys
}

// TestDeferredSlowRangesOutOfOrder runs three registered slow-path range
// queries that finish out of order: every deferral goes to the newest
// query in flight, a finishing query splices its list onto its oldest
// remaining predecessor in O(1), and nothing is unstitched until the
// oldest finishes. CheckInvariants audits the lists at every step.
func TestDeferredSlowRangesOutOfOrder(t *testing.T) {
	m := newRQCMap(t)
	h := m.NewHandle()
	defer h.Close()
	for k := int64(0); k < 100; k++ {
		h.Insert(k, k)
	}
	begin := func() *SlowRange[int64, int64] {
		var sr *SlowRange[int64, int64]
		_ = m.rt.Atomic(func(tx *stm.Tx) error {
			sr = m.BeginSlowRangeTx(tx, h, 0)
			return nil
		})
		return sr
	}
	removeRange := func(lo, hi int64) {
		for k := lo; k < hi; k++ {
			if !h.Remove(k) {
				t.Fatalf("Remove(%d) found the key absent", k)
			}
		}
	}
	check := func(step string, lists map[*SlowRange[int64, int64]]int, stitched int) {
		t.Helper()
		for sr, want := range lists {
			if got := len(deferredKeys(sr.op)); got != want {
				t.Errorf("%s: query %d defers %d nodes, want %d", step, sr.op.ver, got, want)
			}
		}
		if got := m.StitchedSlow(); got != stitched {
			t.Errorf("%s: %d nodes stitched, want %d", step, got, stitched)
		}
		if err := m.CheckInvariants(CheckOptions{AllowDeleted: true}); err != nil {
			t.Errorf("%s: %v", step, err)
		}
	}

	sr1 := begin()
	removeRange(0, 5)
	sr2, sr3 := begin(), begin()
	removeRange(10, 20)
	check("three in flight", map[*SlowRange[int64, int64]]int{sr1: 5, sr2: 0, sr3: 10}, 100)

	// Each query sees the map as of its registration.
	for sr, want := range map[*SlowRange[int64, int64]]int{sr1: 100, sr2: 95, sr3: 95} {
		if got := len(sr.Collect(99, nil)); got != want {
			t.Errorf("query %d collected %d pairs, want %d", sr.op.ver, got, want)
		}
	}

	sr2.Finish() // the middle one, with nothing deferred
	removeRange(20, 25)
	check("middle finished", map[*SlowRange[int64, int64]]int{sr1: 5, sr3: 15}, 100)

	sr3.Finish() // the newest: its 15 nodes move behind sr1's 5
	check("newest finished", map[*SlowRange[int64, int64]]int{sr1: 20}, 100)
	want := []int64{0, 1, 2, 3, 4}
	for k := int64(10); k < 25; k++ {
		want = append(want, k)
	}
	if got := deferredKeys(sr1.op); !slices.Equal(got, want) {
		t.Errorf("oldest query's list after the splice = %v, want %v", got, want)
	}

	sr1.Finish() // the oldest: everything is unstitched
	if stitched, size := m.StitchedSlow(), m.SizeSlow(); stitched != size || size != 80 {
		t.Errorf("after the oldest finished: %d stitched, %d present, want 80 and 80", stitched, size)
	}
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Error(err)
	}
}

// TestCheckInvariantsCatchesBadDeferredList corrupts a deferred list by
// hand in each way the audit looks for.
func TestCheckInvariantsCatchesBadDeferredList(t *testing.T) {
	for _, c := range []struct {
		name, want string
		corrupt    func(m *Map[int64, int64], older, newer *rangeOp[int64, int64])
	}{
		{"tail cell with a successor", "has a successor", func(m *Map[int64, int64], _, newer *rangeOp[int64, int64]) {
			extra := &deferred[int64, int64]{n: m.head.next0.Raw()}
			newer.defTail.Raw().next.Init(extra)
		}},
		{"tail cell not reached", "not the last cell", func(m *Map[int64, int64], _, newer *rangeOp[int64, int64]) {
			newer.defHead.Raw().next.Init(nil)
		}},
		{"node on two lists", "more than one deferred list", func(m *Map[int64, int64], older, newer *rangeOp[int64, int64]) {
			c := &deferred[int64, int64]{n: newer.defHead.Raw().n}
			older.defHead.Init(c)
			older.defTail.Init(c)
		}},
		{"live node", "logically present", func(m *Map[int64, int64], older, _ *rangeOp[int64, int64]) {
			c := &deferred[int64, int64]{n: m.index.bucketFor(50).head.Raw()}
			older.defHead.Init(c)
			older.defTail.Init(c)
		}},
		{"unstitched node", "not stitched", func(m *Map[int64, int64], older, _ *rangeOp[int64, int64]) {
			n := newNode[int64, int64](1)
			n.rTime.Init(1)
			c := &deferred[int64, int64]{n: n}
			older.defHead.Init(c)
			older.defTail.Init(c)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := newRQCMap(t)
			h := m.NewHandle()
			defer h.Close()
			for k := int64(0); k < 100; k++ {
				h.Insert(k, k)
			}
			older, newer := startRange(m), startRange(m)
			h.Remove(10)
			h.Remove(11)
			if err := m.CheckInvariants(CheckOptions{AllowDeleted: true}); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			c.corrupt(m, older, newer)
			if err := m.CheckInvariants(CheckOptions{AllowDeleted: true}); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("CheckInvariants = %v, want an error containing %q", err, c.want)
			}
		})
	}
}
