package core

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/stm"
)

// Handle is a per-goroutine context for skip hash operations. It owns
// the scratch predecessor array for tower searches and the adaptive
// range-path window, and points at a striped counter cell of its map
// (and of its runtime, for the read fast path). A Handle must not be
// used concurrently; create one per worker goroutine with Map.NewHandle.
// It holds nothing the map needs back, so dropping it is as good as
// closing it.
type Handle[K comparable, V any] struct {
	m     *Map[K, V]
	preds []*node[K, V]
	// cell is the handle's striped cell of the map's range-path and
	// reclamation counters.
	cell *counterCell
	// adaptSkip counts remaining range queries that bypass the fast
	// path under Config.Adaptive.
	adaptSkip int
	// fastC is the handle's striped fast-read counter cell; nil when
	// Config.DisableReadFastPath turned the read fast path off.
	fastC *stm.FastReadCounters
}

// counterStripes is the number of cells per stripedCounters; a power
// of two so assignment is a cheap mask.
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
// range-path events and the nodes its handles' removals unstitched at
// commit. Handles sharing a cell may bump it concurrently.
type counterCell struct {
	rangeCounters
	drainedNodes atomic.Uint64
	_            [24]byte // pad to a cache line
}

// Committed makes a cell a commit-hook target: a removal that unstitched
// its node registers its handle's cell, so the count moves only when the
// removing transaction commits.
func (c *counterCell) Committed(unsafe.Pointer) { c.drainedNodes.Add(1) }

// stripedCounters is a set of striped counterCells. Handles take a cell
// round-robin at creation, as they take stm.FastReadCounters, so
// handles on different cores rarely bump the same line; the sums read
// every cell.
type stripedCounters struct {
	cells [counterStripes]counterCell
	next  atomic.Uint64
}

// cell hands out the next cell round-robin.
func (c *stripedCounters) cell() *counterCell {
	return &c.cells[c.next.Add(1)%counterStripes]
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

// NewHandle creates a handle bound to m.
func (m *Map[K, V]) NewHandle() *Handle[K, V] {
	h := &Handle[K, V]{
		m:     m,
		preds: make([]*node[K, V], m.cfg.MaxLevel),
		cell:  m.counters.cell(),
	}
	if !m.cfg.DisableReadFastPath {
		h.fastC = m.rt.FastReadCounters()
	}
	return h
}

// Map returns the map this handle operates on.
func (h *Handle[K, V]) Map() *Map[K, V] { return h.m }

// Close does nothing: a removal unstitches its node at commit or hands
// it to an in-flight range query, and the handle's counters live in its
// map, so the handle holds nothing to give back. It is kept so workers
// can release a handle the way they release other resources.
func (h *Handle[K, V]) Close() {}

// Lookup returns the value associated with k. O(1): one hash map probe
// and at most one extra read (Fig. 1). Unless Config.DisableReadFastPath
// is set, the probe first runs optimistically outside any transaction —
// one clock sample, a raw bucket walk, one orec revalidation — and only
// a torn or concurrent-write observation falls back to the full
// transaction below, which remains the source of truth.
func (h *Handle[K, V]) Lookup(k K) (V, bool) {
	if h.fastC != nil {
		if v, present, answered := h.m.lookupFast(k); answered {
			h.fastC.Hit()
			return v, present
		}
		h.fastC.Fallback()
	}
	var v V
	var ok bool
	_ = h.m.rt.Atomic(func(tx *stm.Tx) error {
		v, ok = h.m.lookupTx(tx, k)
		return nil
	})
	return v, ok
}

// Contains reports whether k is present, on the same optimistic fast
// path as Lookup.
func (h *Handle[K, V]) Contains(k K) bool {
	if h.fastC != nil {
		if present, answered := h.m.containsFast(k); answered {
			h.fastC.Hit()
			return present
		}
		h.fastC.Fallback()
	}
	var ok bool
	_ = h.m.rt.Atomic(func(tx *stm.Tx) error {
		ok = h.m.containsTx(tx, k)
		return nil
	})
	return ok
}

// Insert adds (k, v) if k is absent and reports whether it did.
func (h *Handle[K, V]) Insert(k K, v V) bool {
	var ok bool
	_ = h.m.rt.Atomic(func(tx *stm.Tx) error {
		ok = h.m.insertTx(tx, h, k, v)
		return nil
	})
	return ok
}

// Remove deletes k and reports whether it was present. O(1) expected:
// the hash map routes to the node and double-linking unstitches it
// without a traversal.
func (h *Handle[K, V]) Remove(k K) bool {
	var ok bool
	_ = h.m.rt.Atomic(func(tx *stm.Tx) error {
		ok = h.m.removeTx(tx, h, k)
		return nil
	})
	return ok
}

// Put sets k to v unconditionally, reporting whether a previous value
// was replaced. Replacement is remove-then-insert in one transaction, so
// node values stay immutable and range-query linearizability is
// unaffected (the old node is logically deleted, the new one carries a
// fresh insertion time).
func (h *Handle[K, V]) Put(k K, v V) bool {
	var replaced bool
	_ = h.m.rt.Atomic(func(tx *stm.Tx) error {
		replaced = h.m.removeTx(tx, h, k)
		h.m.insertTx(tx, h, k, v)
		return nil
	})
	return replaced
}

// Ceil returns the smallest key >= k and its value.
func (h *Handle[K, V]) Ceil(k K) (K, V, bool) {
	return h.pointQuery(k, h.m.ceilTx)
}

// Succ returns the smallest key > k and its value.
func (h *Handle[K, V]) Succ(k K) (K, V, bool) {
	return h.pointQuery(k, h.m.succTx)
}

// Floor returns the largest key <= k and its value.
func (h *Handle[K, V]) Floor(k K) (K, V, bool) {
	return h.pointQuery(k, h.m.floorTx)
}

// Pred returns the largest key < k and its value.
func (h *Handle[K, V]) Pred(k K) (K, V, bool) {
	return h.pointQuery(k, h.m.predTx)
}

func (h *Handle[K, V]) pointQuery(k K, fn func(*stm.Tx, *Handle[K, V], K) (K, V, bool)) (K, V, bool) {
	var rk K
	var rv V
	var ok bool
	_ = h.m.rt.Atomic(func(tx *stm.Tx) error {
		rk, rv, ok = fn(tx, h, k)
		return nil
	})
	return rk, rv, ok
}

// Range appends every pair with l <= key <= r, in key order, to out and
// returns the extended slice. It implements Figure 3's two-path scheme:
// fastPathTries single-transaction attempts (forever under FastOnly,
// none under SlowOnly or inside an Adaptive skip window), then the
// RQC-coordinated slow path, with the path counters and the adaptive
// window updated on the way.
func (h *Handle[K, V]) Range(l, r K, out []Pair[K, V]) []Pair[K, V] {
	m, c := h.m, &h.cell.rangeCounters
	tryFast := !m.cfg.SlowOnly
	if tryFast && m.cfg.Adaptive && h.adaptSkip > 0 {
		h.adaptSkip--
		tryFast = false
	}
	if tryFast {
		for i := 0; m.cfg.FastOnly || i < fastPathTries; i++ {
			c.fastAttempts.Add(1)
			if res, err := m.rangeFast(h, l, r, out); err == nil {
				c.fastCommits.Add(1)
				h.adaptSkip = 0
				return res
			}
			c.fastAborts.Add(1)
		}
		if m.cfg.Adaptive {
			h.adaptSkip = m.cfg.AdaptiveSkip
		}
	}
	out = m.rangeSlow(h, l, r, out)
	c.slowCommits.Add(1)
	return out
}

// RangeStats aggregates range-path counters across every handle of the
// map (Table 1's inputs).
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

// The convenience methods on Map borrow a pooled handle; they are the
// ergonomic entry points, workers hold explicit handles. Map.Atomic, the
// iterators and SnapshotChunks borrow from the same pool.

func (m *Map[K, V]) borrow() *Handle[K, V] { return m.handlePool.Get().(*Handle[K, V]) }

func (m *Map[K, V]) release(h *Handle[K, V]) { m.handlePool.Put(h) }

// Lookup returns the value associated with k.
func (m *Map[K, V]) Lookup(k K) (V, bool) {
	h := m.borrow()
	defer m.release(h)
	return h.Lookup(k)
}

// Contains reports whether k is present.
func (m *Map[K, V]) Contains(k K) bool {
	h := m.borrow()
	defer m.release(h)
	return h.Contains(k)
}

// Insert adds (k, v) if k is absent and reports whether it did.
func (m *Map[K, V]) Insert(k K, v V) bool {
	h := m.borrow()
	defer m.release(h)
	return h.Insert(k, v)
}

// Remove deletes k and reports whether it was present.
func (m *Map[K, V]) Remove(k K) bool {
	h := m.borrow()
	defer m.release(h)
	return h.Remove(k)
}

// Put sets k to v unconditionally, reporting whether a previous value
// was replaced.
func (m *Map[K, V]) Put(k K, v V) bool {
	h := m.borrow()
	defer m.release(h)
	return h.Put(k, v)
}

// Ceil returns the smallest key >= k and its value.
func (m *Map[K, V]) Ceil(k K) (K, V, bool) {
	h := m.borrow()
	defer m.release(h)
	return h.Ceil(k)
}

// Succ returns the smallest key > k and its value.
func (m *Map[K, V]) Succ(k K) (K, V, bool) {
	h := m.borrow()
	defer m.release(h)
	return h.Succ(k)
}

// Floor returns the largest key <= k and its value.
func (m *Map[K, V]) Floor(k K) (K, V, bool) {
	h := m.borrow()
	defer m.release(h)
	return h.Floor(k)
}

// Pred returns the largest key < k and its value.
func (m *Map[K, V]) Pred(k K) (K, V, bool) {
	h := m.borrow()
	defer m.release(h)
	return h.Pred(k)
}

// Range collects [l, r] into out; see Handle.Range.
func (m *Map[K, V]) Range(l, r K, out []Pair[K, V]) []Pair[K, V] {
	h := m.borrow()
	defer m.release(h)
	return h.Range(l, r, out)
}
