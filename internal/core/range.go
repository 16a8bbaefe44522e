package core

import (
	"repro/internal/stm"
)

// rangeFast attempts Figure 3's fast path: the whole query as one
// transaction that does not retry on conflict. On success the pairs are
// appended to out; ErrAborted indicates the caller should try again or
// fall back.
func (m *Map[K, V]) rangeFast(l, r K, out []Pair[K, V]) ([]Pair[K, V], error) {
	res := out
	err := m.rt.TryOnce(func(tx *stm.Tx) error {
		res = out
		c := m.seekTx(tx, l, m.nodeBefore, nil)
		for c != m.tail && !m.less(r, c.key) {
			if !c.deleted(tx) {
				res = append(res, Pair[K, V]{Key: c.key, Val: c.val})
			}
			c = c.next0.Load(tx, &c.orec)
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	return res, nil
}

// rangeSlow runs Figure 3's slow path. One transaction finds the first
// logically present node at or after l and registers with the RQC —
// doing both atomically makes the start node safe and is the query's
// linearization point. The traversal then proceeds as a resumable
// transaction; a finalizing call hands the query's safe nodes back to
// the RQC.
func (m *Map[K, V]) rangeSlow(l, r K, out []Pair[K, V]) []Pair[K, V] {
	var sr *slowRange[K, V]
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		sr = m.beginSlowRangeTx(tx, l)
		return nil
	})
	out = sr.collect(r, out)
	sr.finish()
	return out
}

// slowRange is a registered slow-path range query whose lifecycle the
// caller drives: beginSlowRangeTx registers it, collect traverses, and
// finish deregisters it from the RQC. Range drives one per fallback.
type slowRange[K comparable, V any] struct {
	m  *Map[K, V]
	op *rangeOp[K, V]
	n  *node[K, V] // resumable cursor: next safe node to collect
}

// beginSlowRangeTx registers a slow-path range query starting at the
// first logically present key >= l, inside the caller's transaction.
// Performing the ceil search and the RQC registration in one transaction
// makes the start node safe and is the query's linearization point. The
// caller must eventually call finish exactly once (after the enclosing
// transaction commits); if the enclosing transaction aborts, the
// registration is rolled back and the returned value from the failed
// attempt must be discarded.
func (m *Map[K, V]) beginSlowRangeTx(tx *stm.Tx, l K) *slowRange[K, V] {
	return &slowRange[K, V]{
		m:  m,
		op: m.rqc.onRange(tx),
		n:  m.ceilNodeTx(tx, l),
	}
}

// collect traverses safe nodes from the current cursor while key <= r,
// appending pairs to out. The traversal is a resumable transaction: the
// pairs collected so far and the current safe node are plain locals that
// survive aborts (atomic(no_local_undo)), so an abort behaves as an
// early commit and the next attempt picks up exactly where the last one
// stopped. The cursor persists across calls, so collect may be invoked
// again with a larger r to extend the scan.
func (s *slowRange[K, V]) collect(r K, out []Pair[K, V]) []Pair[K, V] {
	m := s.m
	ver := s.op.ver
	set := out
	n := s.n
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		// Loop order matters for exactly-once collection: the only
		// transactional reads are inside nextSafe and precede the
		// append, so an abort always resumes at a node that has not
		// been collected yet (§4.4.2).
		for n != m.tail && !m.less(r, n.key) {
			next := m.nextSafe(tx, n, ver)
			set = append(set, Pair[K, V]{Key: n.key, Val: n.val})
			n = next
		}
		return nil
	})
	s.n = n
	return set
}

// finish deregisters the query, handing its deferred nodes back to the
// RQC for reclamation. It must be called exactly once.
func (s *slowRange[K, V]) finish() {
	s.m.rqc.afterRange(s.m, s.op)
}

// nextSafe walks level 0 from n to the next node that is safe for a
// range query with version ver. The tail sentinel is always safe, so the
// walk terminates.
func (m *Map[K, V]) nextSafe(tx *stm.Tx, n *node[K, V], ver uint64) *node[K, V] {
	c := n.next0.Load(tx, &n.orec)
	for !m.isSafe(tx, c, ver) {
		c = c.next0.Load(tx, &c.orec)
	}
	return c
}

// isSafe implements Figure 3's is_safe: sentinels are always safe; nodes
// inserted at or after ver are not (the RQC may unstitch them
// immediately); otherwise the node must be logically present or removed
// at or after ver.
func (m *Map[K, V]) isSafe(tx *stm.Tx, n *node[K, V], ver uint64) bool {
	if n == m.tail || n == m.head {
		return true
	}
	if n.iTime() >= ver {
		return false
	}
	rt := n.rTime.Load(tx, &n.orec)
	return rt == rTimeNone || rt >= ver
}

// rangeTx collects [l, r] inside an enclosing transaction (used by the
// batch API, where the surrounding transaction already provides
// atomicity; this is the fast path's body without the try-once wrapper).
func (m *Map[K, V]) rangeTx(tx *stm.Tx, l, r K, out []Pair[K, V]) []Pair[K, V] {
	c := m.seekTx(tx, l, m.nodeBefore, nil)
	for c != m.tail && !m.less(r, c.key) {
		if !c.deleted(tx) {
			out = append(out, Pair[K, V]{Key: c.key, Val: c.val})
		}
		c = c.next0.Load(tx, &c.orec)
	}
	return out
}
