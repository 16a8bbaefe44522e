package core

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/stm"
)

// Handle is the map under an older name. It stays until a change to
// benchmark/ retires it: operations keep no state, so NewHandle wraps m
// and Close does nothing (it does not close the map).
type Handle[K comparable, V any] struct{ *Map[K, V] }

// NewHandle returns m as a Handle.
func (m *Map[K, V]) NewHandle() *Handle[K, V] { return &Handle[K, V]{m} }

// Close does nothing.
func (h *Handle[K, V]) Close() {}

// mapCounters is one cell of a map's striped counters (stm.Stripes):
// range-path events, Table 1's inputs, and reclamation. RangeStats and
// MaintenanceStats sum the cells.
type mapCounters struct {
	// fastAttempts counts fast-path transactions started.
	fastAttempts atomic.Uint64
	// fastAborts counts fast-path transactions that aborted (Table 1's
	// numerator).
	fastAborts atomic.Uint64
	// fastCommits counts range queries completed on the fast path.
	fastCommits atomic.Uint64
	// slowCommits counts range queries completed on the slow path.
	slowCommits atomic.Uint64
	// drainedNodes counts removed nodes unstitched (see
	// MaintenanceStats); drainBatches the after_range drains.
	drainedNodes atomic.Uint64
	drainBatches atomic.Uint64
	_            [80]byte // 56+ bytes of padding, to two cache lines
}

// Committed makes a cell a commit-hook target: a removal that unstitched
// its node registers its cell, so the count moves only when the removing
// transaction commits.
func (c *mapCounters) Committed(unsafe.Pointer) { c.drainedNodes.Add(1) }

// Lookup returns the value associated with k. O(1): one hash map probe
// and at most one extra read (Fig. 1). Unless Config.DisableReadFastPath
// is set, the probe first runs optimistically outside any transaction —
// a raw bucket walk between two reads of the bucket's orec — and only a
// torn or concurrent-write observation falls back to the full
// transaction below, which remains the source of truth.
func (m *Map[K, V]) Lookup(k K) (V, bool) {
	if !m.cfg.DisableReadFastPath {
		// Validating the single bucket orec suffices for
		// linearizability: index membership is exactly logical presence
		// (insert and remove update the index inside the same
		// transaction that stitches or stamps the node), a node's key and
		// value are immutable once published, and any commit touching the
		// bucket between sample and revalidation releases the orec at a
		// strictly newer version, changing the sampled word. A validated
		// probe therefore observed the one committed state current at its
		// sample instant and linearizes there, with the same residual
		// acquire/write/rollback exposure as the transactional read
		// protocol (see the stm package doc).
		c := m.rt.LocalCounters()
		if n, ok := m.index.getFast(k); ok {
			c.FastReadHit()
			if n == nil {
				var zero V
				return zero, false
			}
			return n.val, true
		}
		c.FastReadFallback()
	}
	var v V
	var ok bool
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		v, ok = m.lookupTx(tx, k)
		return nil
	})
	return v, ok
}

// Contains reports whether k is present; it is Lookup without the value.
func (m *Map[K, V]) Contains(k K) bool {
	_, ok := m.Lookup(k)
	return ok
}

// Insert adds (k, v) if k is absent and reports whether it did.
func (m *Map[K, V]) Insert(k K, v V) bool {
	var ok bool
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		ok = m.insertTx(tx, k, v)
		return nil
	})
	return ok
}

// Remove deletes k and reports whether it was present. O(1) expected:
// the hash map routes to the node and double-linking unstitches it
// without a traversal.
func (m *Map[K, V]) Remove(k K) bool {
	var ok bool
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		ok = m.removeTx(tx, k)
		return nil
	})
	return ok
}

// Put sets k to v unconditionally, reporting whether a previous value
// was replaced. Replacement is remove-then-insert in one transaction, so
// node values stay immutable and range-query linearizability is
// unaffected (the old node is logically deleted, the new one carries a
// fresh insertion time).
func (m *Map[K, V]) Put(k K, v V) bool {
	var replaced bool
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		replaced = m.putTx(tx, k, v)
		return nil
	})
	return replaced
}

// Ceil returns the smallest key >= k and its value.
func (m *Map[K, V]) Ceil(k K) (K, V, bool) { return m.pointQuery(k, m.ceilTx) }

// Succ returns the smallest key > k and its value.
func (m *Map[K, V]) Succ(k K) (K, V, bool) { return m.pointQuery(k, m.succTx) }

// Floor returns the largest key <= k and its value.
func (m *Map[K, V]) Floor(k K) (K, V, bool) { return m.pointQuery(k, m.floorTx) }

// Pred returns the largest key < k and its value.
func (m *Map[K, V]) Pred(k K) (K, V, bool) { return m.pointQuery(k, m.predTx) }

func (m *Map[K, V]) pointQuery(k K, fn func(*stm.Tx, K) (K, V, bool)) (K, V, bool) {
	var rk K
	var rv V
	var ok bool
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		rk, rv, ok = fn(tx, k)
		return nil
	})
	return rk, rv, ok
}

// Range appends every pair with l <= key <= r, in key order, to out and
// returns the extended slice. It implements Figure 3's two-path scheme:
// fastPathTries single-transaction attempts (forever under FastOnly,
// none under SlowOnly), then the RQC-coordinated slow path, counting
// each path's events in the calling goroutine's counter cell.
func (m *Map[K, V]) Range(l, r K, out []Pair[K, V]) []Pair[K, V] {
	c := m.counters.Local()
	if !m.cfg.SlowOnly {
		for i := 0; m.cfg.FastOnly || i < fastPathTries; i++ {
			c.fastAttempts.Add(1)
			if res, err := m.rangeFast(l, r, out); err == nil {
				c.fastCommits.Add(1)
				return res
			}
			c.fastAborts.Add(1)
		}
	}
	out = m.rangeSlow(l, r, out)
	c.slowCommits.Add(1)
	return out
}

// RangeStats aggregates the map's range-path counters (Table 1's
// inputs).
type RangeStats struct {
	FastAttempts uint64
	FastAborts   uint64
	FastCommits  uint64
	SlowCommits  uint64
}

// Sub returns the element-wise difference s - prev.
func (s RangeStats) Sub(prev RangeStats) RangeStats {
	return RangeStats{
		FastAttempts: s.FastAttempts - prev.FastAttempts,
		FastAborts:   s.FastAborts - prev.FastAborts,
		FastCommits:  s.FastCommits - prev.FastCommits,
		SlowCommits:  s.SlowCommits - prev.SlowCommits,
	}
}

// RangeStats sums the map's range-path counters. Counters only grow, so
// successive snapshots never decrease (Sub deltas stay non-negative).
func (m *Map[K, V]) RangeStats() RangeStats {
	var s RangeStats
	cells := m.counters.Cells()
	for i := range cells {
		c := &cells[i]
		s.FastAttempts += c.fastAttempts.Load()
		s.FastAborts += c.fastAborts.Load()
		s.FastCommits += c.fastCommits.Load()
		s.SlowCommits += c.slowCommits.Load()
	}
	return s
}
