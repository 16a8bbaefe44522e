package core

import (
	"repro/internal/stm"
)

// snapshotScanBound caps how many nodes (live or logically deleted) one
// snapshot chunk transaction visits, keeping its read footprint — and
// therefore its abort exposure under churn — bounded even when the walk
// crosses a long run of deleted nodes.
const snapshotScanBound = 4

// SnapshotChunks iterates the whole map for a durable snapshot while
// writers proceed: the key space is walked in chunks of up to chunkSize
// live pairs, each chunk read inside one read-only transaction and
// reported to fn together with that transaction's start stamp. A chunk
// is therefore a consistent view of its keys as of its stamp — the
// commit clock's total order is what lets recovery decide, per key,
// which WAL records the snapshot already reflects. fn runs between
// chunk transactions (it does file I/O) and may stop iteration by
// returning an error, which is propagated.
//
// At least one chunk is always reported, and the last one may be empty:
// it stamps the moment iteration observed the end of the key space,
// which is what allows WAL truncation even for an empty map. The pairs
// slice is reused across calls; fn must not retain it.
func (m *Map[K, V]) SnapshotChunks(chunkSize int, fn func(stamp uint64, pairs []Pair[K, V]) error) error {
	return m.walkChunks(nil, chunkSize, fn)
}

// walkChunks is SnapshotChunks from the first key >= *from (from the
// first key when from is nil); the ascending iterators run on it too.
func (m *Map[K, V]) walkChunks(from *K, chunkSize int, fn func(stamp uint64, pairs []Pair[K, V]) error) error {
	if chunkSize <= 0 {
		chunkSize = 512
	}
	maxScan := snapshotScanBound * chunkSize
	var cursor K
	haveCursor := from != nil
	if haveCursor {
		cursor = *from
	}
	// cursorLive records whether the node the previous chunk ended on was
	// live (emitted). Only then may the resume step skip past a ceil node
	// whose key equals the cursor: when the chunk ended on a logically
	// deleted node, a live reinserted node with the same key sits after it
	// in the chain (inserts land after deleted same-key nodes), is what
	// ceilNodeTx returns via the index, and was never emitted — advancing
	// past it would drop the key from the snapshot.
	cursorLive := false
	buf := make([]Pair[K, V], 0, chunkSize)
	var stamp uint64
	var last K
	lastLive := false
	end := false
	for {
		buf = buf[:0]
		_ = m.rt.Atomic(func(tx *stm.Tx) error {
			buf = buf[:0]
			end = false
			lastLive = false
			stamp = tx.Start()
			var c *node[K, V]
			if !haveCursor {
				c = m.head.next0.Load(tx, &m.head.orec)
			} else {
				c = m.ceilNodeTx(tx, cursor)
				if cursorLive && c != m.tail && !m.less(cursor, c.key) {
					c = c.next0.Load(tx, &c.orec)
				}
			}
			scanned := 0
			for c != m.tail && len(buf) < chunkSize && scanned < maxScan {
				if lastLive = !c.deleted(tx); lastLive {
					buf = append(buf, Pair[K, V]{Key: c.key, Val: c.val})
				}
				last = c.key
				scanned++
				c = c.next0.Load(tx, &c.orec)
			}
			end = c == m.tail
			return nil
		})
		if end || len(buf) > 0 {
			if err := fn(stamp, buf); err != nil {
				return err
			}
		}
		if end {
			return nil
		}
		cursor = last
		cursorLive = lastLive
		haveCursor = true
	}
}
