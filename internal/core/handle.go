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
	cell *CounterCell
	// adaptSkip counts remaining range queries that bypass the fast
	// path under Config.Adaptive.
	adaptSkip int
	// fastC is the handle's striped fast-read counter cell; nil when
	// Config.DisableReadFastPath turned the read fast path off.
	fastC *stm.FastReadCounters
}

// counterStripes is the number of counter cells per Counters; a power
// of two so assignment is a cheap mask.
const counterStripes = 16

// RangeCounters counts range-path events (Table 1's inputs).
type RangeCounters struct {
	// FastAttempts counts fast-path transactions started.
	FastAttempts atomic.Uint64
	// FastAborts counts fast-path transactions that aborted (Table 1's
	// numerator).
	FastAborts atomic.Uint64
	// FastCommits counts range queries completed on the fast path.
	FastCommits atomic.Uint64
	// SlowCommits counts range queries completed on the slow path.
	SlowCommits atomic.Uint64
}

// CounterCell is one cache-line-padded cell of a map's counters: the
// range-path events and the nodes its handles' removals unstitched at
// commit. Handles sharing a cell may bump it concurrently.
type CounterCell struct {
	RangeCounters
	drainedNodes atomic.Uint64
	_            [24]byte // pad to a cache line
}

// Counters is a set of striped CounterCells. Handles take a cell
// round-robin at creation, as they take stm.FastReadCounters, so
// handles on different cores rarely bump the same line; the sums read
// every cell.
type Counters struct {
	cells [counterStripes]CounterCell
	next  atomic.Uint64
}

// Cell hands out the next cell round-robin.
func (c *Counters) Cell() *CounterCell {
	return &c.cells[c.next.Add(1)%counterStripes]
}

// RangeStats sums the range-path counters of every cell.
func (c *Counters) RangeStats() RangeStats {
	var s RangeStats
	for i := range c.cells {
		rc := &c.cells[i].RangeCounters
		s.FastAttempts += rc.FastAttempts.Load()
		s.FastAborts += rc.FastAborts.Load()
		s.FastCommits += rc.FastCommits.Load()
		s.SlowCommits += rc.SlowCommits.Load()
	}
	return s
}

// drainedNodes sums the inline-unstitch counts of every cell.
func (c *Counters) drainedNodes() uint64 {
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
		cell:  m.counters.Cell(),
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
// fastPathTries single-transaction attempts, then the RQC-coordinated
// slow path (subject to the FastOnly/SlowOnly configuration).
func (h *Handle[K, V]) Range(l, r K, out []Pair[K, V]) []Pair[K, V] {
	m := h.m
	return TwoPathRange(m.cfg, &h.cell.RangeCounters, &h.adaptSkip,
		func() ([]Pair[K, V], error) { return m.rangeFast(h, l, r, out) },
		func() []Pair[K, V] { return m.rangeSlow(h, l, r, out) })
}

// TwoPathRange drives Figure 3's two-path policy for one range query:
// up to fastPathTries fast attempts (forever under FastOnly, none under
// SlowOnly or inside an Adaptive skip window), then the slow fallback,
// with the path counters and the adaptive window updated on the way.
// It is shared with the sharded frontend so the policy — and any future
// tuning of it — cannot drift between the two maps. fast reports a
// conflict through its error; slow must always succeed.
func TwoPathRange[K comparable, V any](cfg Config, stats *RangeCounters, adaptSkip *int,
	fast func() ([]Pair[K, V], error), slow func() []Pair[K, V]) []Pair[K, V] {
	tryFast := !cfg.SlowOnly
	if tryFast && cfg.Adaptive && *adaptSkip > 0 {
		*adaptSkip--
		tryFast = false
	}
	if tryFast {
		for i := 0; cfg.FastOnly || i < fastPathTries; i++ {
			stats.FastAttempts.Add(1)
			res, err := fast()
			if err == nil {
				stats.FastCommits.Add(1)
				*adaptSkip = 0
				return res
			}
			stats.FastAborts.Add(1)
		}
		if cfg.Adaptive {
			*adaptSkip = cfg.AdaptiveSkip
		}
	}
	res := slow()
	stats.SlowCommits.Add(1)
	return res
}

// drainHook is a CounterCell as a commit-hook target: a removal that
// unstitched its node registers it, so the count moves only when the
// removing transaction commits. The separate name keeps the hook method
// out of CounterCell's exported method set.
type drainHook CounterCell

func (c *drainHook) Committed(unsafe.Pointer) { c.drainedNodes.Add(1) }

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
func (m *Map[K, V]) RangeStats() RangeStats { return m.counters.RangeStats() }

// Map.Atomic, the iterators and SnapshotChunks borrow a pooled handle
// (the per-operation convenience methods live one layer up, on
// shard.Sharded, over that layer's own pool).

func (m *Map[K, V]) borrow() *Handle[K, V] { return m.handlePool.Get().(*Handle[K, V]) }

func (m *Map[K, V]) release(h *Handle[K, V]) { m.handlePool.Put(h) }
