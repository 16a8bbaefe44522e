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

// counterStripes is the number of cells per stripedCounters; a power
// of two so picking one is a cheap mask.
const counterStripes = 16

// rangeCounters counts range-path events (Table 1's inputs).
type rangeCounters struct {
	// fastAttempts counts fast-path transactions started.
	fastAttempts atomic.Uint64
	// fastAborts counts fast-path transactions that aborted (Table 1's
	// numerator).
	fastAborts atomic.Uint64
	// fastCommits counts range queries completed on the fast path.
	fastCommits atomic.Uint64
	// slowCommits counts range queries completed on the slow path.
	slowCommits atomic.Uint64
}

// counterCell is one cache-line-padded cell of a map's counters: the
// range-path events and the nodes removals unstitched at commit.
// Operations sharing a cell may bump it concurrently.
type counterCell struct {
	rangeCounters
	drainedNodes atomic.Uint64
	_            [24]byte // pad to a cache line
}

// Committed makes a cell a commit-hook target: a removal that unstitched
// its node registers its cell, so the count moves only when the removing
// transaction commits.
func (c *counterCell) Committed(unsafe.Pointer) { c.drainedNodes.Add(1) }

// stripedCounters is a set of striped counterCells. An operation picks
// its cell from the hash of its key (at), so operations on different
// keys rarely bump the same line; the sums read every cell.
type stripedCounters struct {
	cells [counterStripes]counterCell
}

// at returns the cell of a key whose hash is hk.
func (c *stripedCounters) at(hk uint64) *counterCell {
	return &c.cells[hk%counterStripes]
}

// rangeStats sums the range-path counters of every cell.
func (c *stripedCounters) rangeStats() RangeStats {
	var s RangeStats
	for i := range c.cells {
		rc := &c.cells[i].rangeCounters
		s.FastAttempts += rc.fastAttempts.Load()
		s.FastAborts += rc.fastAborts.Load()
		s.FastCommits += rc.fastCommits.Load()
		s.SlowCommits += rc.slowCommits.Load()
	}
	return s
}

// drainedNodes sums the inline-unstitch counts of every cell.
func (c *stripedCounters) drainedNodes() uint64 {
	var n uint64
	for i := range c.cells {
		n += c.cells[i].drainedNodes.Load()
	}
	return n
}

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
		c := m.rt.FastReadStripe()
		if n, ok := m.index.getFast(k); ok {
			c.Hit()
			if n == nil {
				var zero V
				return zero, false
			}
			return n.val, true
		}
		c.Fallback()
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
// each path's events in the cell of l's hash.
func (m *Map[K, V]) Range(l, r K, out []Pair[K, V]) []Pair[K, V] {
	c := &m.counters.at(m.index.hash(l)).rangeCounters
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
func (m *Map[K, V]) RangeStats() RangeStats { return m.counters.rangeStats() }
