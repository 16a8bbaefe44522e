package core

import (
	"repro/internal/stm"
)

// rqc is the range query coordinator of §4.5 (Figure 4). It owns a
// version counter — incremented only by slow-path range queries, so that
// elemental operations merely read it — and a doubly linked list of
// in-flight slow-path range queries, newest at the tail. Each list entry
// carries the nodes whose physical removal has been deferred on its
// behalf.
//
// One orec guards the counter and the list links; this concentration is
// deliberate, reproducing the contention profile the paper measures for
// slow-path-heavy workloads (§5.2.2).
type rqc[K comparable, V any] struct {
	orec    stm.Orec
	counter stm.U64
	opsHead stm.Ptr[rangeOp[K, V]]
	opsTail stm.Ptr[rangeOp[K, V]]
}

// rangeOp is Figure 4's range_op: metadata for one in-flight slow-path
// range query. Its own orec guards the deferred list endpoints, so
// removals delegating cleanup contend on the op rather than on the
// whole coordinator.
type rangeOp[K comparable, V any] struct {
	orec stm.Orec
	ver  uint64                 // immutable
	prev stm.Ptr[rangeOp[K, V]] // list links, guarded by rqc.orec
	next stm.Ptr[rangeOp[K, V]]
	// deferred list of nodes to unstitch after this query completes, one
	// cell per node; endpoints guarded by this op's orec.
	defHead stm.Ptr[deferred[K, V]]
	defTail stm.Ptr[deferred[K, V]]
}

// deferred is one cell of a rangeOp's deferred list: a logically deleted
// node whose unstitching waits for the query. The link lives in the cell,
// not in the node, so a node pays for it only when a removal is deferred,
// which happens only while a slow-path range query older than the node is
// in flight. next is guarded by n's orec, so appending behind a cell
// conflicts with whatever else touches that node, as a link in the node
// itself would.
type deferred[K comparable, V any] struct {
	n    *node[K, V]
	next stm.Ptr[deferred[K, V]]
}

// onRange registers a new slow-path range query: it increments the
// version counter (the only operation that does) and appends a range_op
// at the tail of the list. It returns the op, whose ver field is the
// query's unique version number.
func (q *rqc[K, V]) onRange(tx *stm.Tx) *rangeOp[K, V] {
	ver := q.counter.Load(tx, &q.orec) + 1
	if ver > maxITime {
		panic("core: range query version counter exhausted: node.meta keeps 57 bits of insertion time, at most 2^57-1 slow-path range queries")
	}
	q.counter.Store(tx, &q.orec, ver)
	op := &rangeOp[K, V]{ver: ver}
	tail := q.opsTail.Load(tx, &q.orec)
	op.prev.Init(tail)
	if tail == nil {
		q.opsHead.Store(tx, &q.orec, op)
	} else {
		tail.next.Store(tx, &q.orec, op)
	}
	q.opsTail.Store(tx, &q.orec, op)
	return op
}

// onUpdate reports the most recent range query's version number; the
// calling insertion or removal orders itself after that query. This is
// the "typically only a single read" O(1) overhead of §4.
func (q *rqc[K, V]) onUpdate(tx *stm.Tx) uint64 {
	return q.counter.Load(tx, &q.orec)
}

// afterRemove is Figure 4's after_remove: take responsibility for the
// logically deleted node n, unstitching immediately when no in-flight
// slow-path range query can need it, and deferring to the most recent
// query otherwise. m supplies the unstitch; the caller's transaction
// makes the decision and the action atomic. It reports whether n was
// unstitched.
func (q *rqc[K, V]) afterRemove(tx *stm.Tx, m *Map[K, V], n *node[K, V]) bool {
	tail := q.opsTail.Load(tx, &q.orec)
	if tail == nil || n.iTime() >= tail.ver {
		m.unstitchTx(tx, n) // safe to remove immediately
		return true
	}
	q.appendDeferred(tx, tail, n)
	return false
}

// appendDeferred pushes n onto op's deferred list in a fresh cell (O(1)).
func (q *rqc[K, V]) appendDeferred(tx *stm.Tx, op *rangeOp[K, V], n *node[K, V]) {
	c := &deferred[K, V]{n: n}
	t := op.defTail.Load(tx, &op.orec)
	if t == nil {
		op.defHead.Store(tx, &op.orec, c)
	} else {
		t.next.Store(tx, &t.n.orec, c)
	}
	op.defTail.Store(tx, &op.orec, c)
}

// afterRange is Figure 4's after_range: the finishing query's op is
// unlinked; its deferred nodes are either inherited by this map's oldest
// remaining predecessor query (passed backward, guaranteeing eventual
// reclamation) or, when op was the oldest, collected for immediate
// unstitching. The bookkeeping is one transaction; the unstitching runs
// afterwards in bounded batches (reclaimBatches).
func (q *rqc[K, V]) afterRange(m *Map[K, V], op *rangeOp[K, V]) {
	var removals []*node[K, V]
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		removals = removals[:0]
		prev := op.prev.Load(tx, &q.orec)
		next := op.next.Load(tx, &q.orec)
		if prev == nil {
			q.opsHead.Store(tx, &q.orec, next)
		} else {
			prev.next.Store(tx, &q.orec, next)
		}
		if next == nil {
			q.opsTail.Store(tx, &q.orec, prev)
		} else {
			next.prev.Store(tx, &q.orec, prev)
		}
		head := op.defHead.Load(tx, &op.orec)
		if head == nil {
			return nil
		}
		if prev == nil {
			// Oldest query: its deferred nodes are needed by no one.
			for c := head; c != nil; c = c.next.Load(tx, &c.n.orec) {
				removals = append(removals, c.n)
			}
			return nil
		}
		// Splice the whole deferred list onto the predecessor (O(1)).
		tail := op.defTail.Load(tx, &op.orec)
		pt := prev.defTail.Load(tx, &prev.orec)
		if pt == nil {
			prev.defHead.Store(tx, &prev.orec, head)
		} else {
			pt.next.Store(tx, &pt.n.orec, head)
		}
		prev.defTail.Store(tx, &prev.orec, tail)
		return nil
	})
	// op was the oldest in-flight query, so no remaining query can need
	// these nodes.
	m.reclaimBatches(removals)
}
