package core

import (
	"iter"

	"repro/internal/stm"
)

// iterChunk is how many pairs each underlying transaction fetches during
// iteration: large enough to amortize per-transaction overhead, small
// enough to keep the transactions conflict-resistant.
const iterChunk = 64

// AscendFrom visits pairs with key >= from in ascending order until fn
// returns false. Iteration is weakly consistent: it is assembled from a
// sequence of transactions (each chunk is an atomic snapshot), so it
// tolerates — and may observe — concurrent updates between chunks, like
// the iterators of java.util.concurrent maps. For a fully atomic ordered
// scan over a bounded window use Range; composed with other operations,
// use Txn.Range.
func (m *Map[K, V]) AscendFrom(from K, fn func(k K, v V) bool) {
	m.walkUp(&from, fn)
}

// Ascend visits every pair in ascending key order until fn returns
// false; see AscendFrom for the consistency contract.
func (m *Map[K, V]) Ascend(fn func(k K, v V) bool) {
	m.walkUp(nil, fn)
}

func (m *Map[K, V]) walkUp(from *K, fn func(k K, v V) bool) {
	var cursor K
	haveCursor := false
	if from != nil {
		cursor = *from
		haveCursor = true
	}
	inclusive := true
	var buf []Pair[K, V]
	for {
		buf = buf[:0]
		_ = m.rt.Atomic(func(tx *stm.Tx) error {
			buf = buf[:0]
			var c *node[K, V]
			if !haveCursor {
				c = m.head.next0.Load(tx, &m.head.orec)
			} else {
				c = m.ceilNodeTx(tx, cursor)
				if !inclusive && c != m.tail && !m.less(cursor, c.key) {
					c = c.next0.Load(tx, &c.orec)
				}
			}
			for c != m.tail && len(buf) < iterChunk {
				if !c.deleted(tx) {
					buf = append(buf, Pair[K, V]{Key: c.key, Val: c.val})
				}
				c = c.next0.Load(tx, &c.orec)
			}
			return nil
		})
		if len(buf) == 0 {
			return
		}
		for _, p := range buf {
			if !fn(p.Key, p.Val) {
				return
			}
		}
		cursor = buf[len(buf)-1].Key
		haveCursor = true
		inclusive = false
	}
}

// DescendFrom visits pairs with key <= from in descending order until
// fn returns false; the consistency contract matches AscendFrom. This is
// a dividend of the skip hash's double-linking: singly linked lock-free
// skip lists cannot iterate backward at all.
func (m *Map[K, V]) DescendFrom(from K, fn func(k K, v V) bool) {
	m.walkDown(&from, fn)
}

// Descend visits every pair in descending key order until fn returns
// false; see DescendFrom.
func (m *Map[K, V]) Descend(fn func(k K, v V) bool) {
	m.walkDown(nil, fn)
}

func (m *Map[K, V]) walkDown(from *K, fn func(k K, v V) bool) {
	var cursor K
	haveCursor := false
	if from != nil {
		cursor = *from
		haveCursor = true
	}
	inclusive := true
	var buf []Pair[K, V]
	for {
		buf = buf[:0]
		_ = m.rt.Atomic(func(tx *stm.Tx) error {
			buf = buf[:0]
			var c *node[K, V]
			if !haveCursor {
				c = m.tail.prev0.Load(tx, &m.tail.orec)
			} else if inclusive {
				// First node > cursor, then one step back: the last
				// node with key <= cursor (possibly deleted; the walk
				// below skips those).
				first := m.seekTx(tx, cursor, m.nodeBeforeOrAt, nil)
				c = first.prev0.Load(tx, &first.orec)
			} else {
				// First node >= cursor, then back: last node < cursor.
				first := m.seekTx(tx, cursor, m.nodeBefore, nil)
				c = first.prev0.Load(tx, &first.orec)
			}
			for c != m.head && len(buf) < iterChunk {
				if !c.deleted(tx) {
					buf = append(buf, Pair[K, V]{Key: c.key, Val: c.val})
				}
				c = c.prev0.Load(tx, &c.orec)
			}
			return nil
		})
		if len(buf) == 0 {
			return
		}
		for _, p := range buf {
			if !fn(p.Key, p.Val) {
				return
			}
		}
		cursor = buf[len(buf)-1].Key
		haveCursor = true
		inclusive = false
	}
}

// All returns a weakly consistent iterator over every pair in ascending
// key order, for use with range-over-func:
//
//	for k, v := range m.All() { ... }
func (m *Map[K, V]) All() iter.Seq2[K, V] { return m.Ascend }

// Backward returns a weakly consistent iterator over every pair in
// descending key order.
func (m *Map[K, V]) Backward() iter.Seq2[K, V] { return m.Descend }
