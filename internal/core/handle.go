package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/stm"
)

// Handle is a per-goroutine context for skip hash operations. It owns
// the scratch predecessor array for tower searches, the removal buffer
// of §4.5 (deferred unstitch batching, size 32 in the paper), and
// operation counters. A Handle must not be used concurrently; create one
// per worker goroutine with Map.NewHandle and call Close when the worker
// is done, so the handle leaves the map's registry and its buffered
// removals reach the orphan queue instead of staying stitched forever.
type Handle[K comparable, V any] struct {
	m     *Map[K, V]
	preds []*node[K, V]
	stats HandleStats
	// adaptSkip counts remaining range queries that bypass the fast
	// path under Config.Adaptive.
	adaptSkip int
	// fastC is the handle's striped fast-read counter cell; nil when
	// Config.DisableReadFastPath turned the read fast path off.
	fastC *stm.FastReadCounters

	// buf is the removal buffer. It is appended to by the owning
	// goroutine (in on-commit hooks) but handed off wholesale by
	// Quiesce, Close and Recycle, which may run on other goroutines;
	// bufMu guards exactly that handoff so flushing is safe concurrent
	// with in-flight operations. No transactional work ever runs under
	// bufMu: flushers swap the slice out and drain outside the lock.
	// bufLen mirrors len(buf) (updated under bufMu) so the release fast
	// path can skip the lock entirely when there is nothing buffered.
	bufMu  sync.Mutex
	buf    []*node[K, V]
	bufLen atomic.Int32
	closed bool

	// registered records membership in Map.handles (explicit handles
	// only; pooled transient handles bank their counters on release
	// instead of living in the registry).
	registered bool
}

// HandleStats counts operations and range-path events for one handle.
// The fields are atomics only so aggregation can run concurrently with
// the owner; each field is written by the owning goroutine alone.
type HandleStats struct {
	// RangeFastAttempts counts fast-path transactions started.
	RangeFastAttempts atomic.Uint64
	// RangeFastAborts counts fast-path transactions that aborted
	// (Table 1's numerator).
	RangeFastAborts atomic.Uint64
	// RangeFastCommits counts range queries completed on the fast path.
	RangeFastCommits atomic.Uint64
	// RangeSlowCommits counts range queries completed on the slow path.
	RangeSlowCommits atomic.Uint64
}

// NewHandle creates a handle bound to m and registers it for stats
// aggregation. The caller should Close it when done; handles that are
// never closed stay in the registry (and keep their removal buffer
// private) for the life of the map.
func (m *Map[K, V]) NewHandle() *Handle[K, V] {
	h := m.NewTransientHandle()
	h.registered = true
	m.mu.Lock()
	m.handles = append(m.handles, h)
	m.mu.Unlock()
	return h
}

// NewTransientHandle creates a handle that is not tracked by the map's
// handle registry: its counters and removal buffer only reach the map
// when Recycle or Close banks them. The pooled convenience paths are
// built on transient handles so that handles dropped by the pool (GC
// empties sync.Pool) cannot grow the registry or strand buffered
// removals; explicit workers normally want NewHandle instead.
func (m *Map[K, V]) NewTransientHandle() *Handle[K, V] {
	h := &Handle[K, V]{
		m:     m,
		preds: make([]*node[K, V], m.cfg.MaxLevel),
	}
	if !m.cfg.DisableReadFastPath {
		h.fastC = m.rt.FastReadCounters()
	}
	if m.cfg.RemovalBufferSize > 0 {
		h.buf = make([]*node[K, V], 0, m.cfg.RemovalBufferSize)
	}
	return h
}

// Map returns the map this handle operates on.
func (h *Handle[K, V]) Map() *Map[K, V] { return h.m }

// Close retires the handle: its counters are banked into the map's
// retired-stats accumulator (RangeStats loses nothing), its buffered
// removals are handed to the orphan queue for batched reclamation, and —
// for handles created with NewHandle — it is deregistered from the
// handle registry. Close is idempotent. The owning goroutine must issue
// no further operations through the handle; a removal that commits
// concurrently with Close still reaches the orphan queue rather than a
// dead buffer.
func (h *Handle[K, V]) Close() {
	h.bufMu.Lock()
	alreadyClosed := h.closed
	h.closed = true
	take := h.buf
	h.buf = nil
	h.bufLen.Store(0)
	h.bufMu.Unlock()
	h.bankStats()
	h.m.orphanNodes(take)
	if alreadyClosed || !h.registered {
		return
	}
	m := h.m
	m.mu.Lock()
	for i, other := range m.handles {
		if other == h {
			last := len(m.handles) - 1
			m.handles[i] = m.handles[last]
			m.handles[last] = nil
			m.handles = m.handles[:last]
			break
		}
	}
	m.mu.Unlock()
}

// Recycle banks the handle's counters and hands its buffered removals to
// the orphan queue while leaving the handle usable, unlike Close. The
// pooled convenience paths call it on every release, so a handle parked
// in — or dropped from — the pool never holds stranded state; a clean
// handle (the common case — point operations buffer nothing) recycles
// with a handful of atomic loads and no lock.
func (h *Handle[K, V]) Recycle() {
	h.bankStats()
	if h.bufLen.Load() == 0 {
		return // nothing buffered; any racing flusher only shrinks the buffer
	}
	if take := h.takeBuf(); take != nil {
		h.m.orphanNodes(take) // copies the pointers into the queue
		h.finishDrain(take)
	}
}

// takeBuf detaches the handle's removal buffer for a handoff, returning
// nil when there is nothing to drain (the buffer, if any, stays put).
func (h *Handle[K, V]) takeBuf() []*node[K, V] {
	h.bufMu.Lock()
	take := h.buf
	if len(take) == 0 {
		h.bufMu.Unlock()
		return nil
	}
	h.buf = nil
	h.bufLen.Store(0)
	h.bufMu.Unlock()
	return take
}

// finishDrain completes a buffer handoff after the nodes have reached
// their sink: the drained slice's pointers are zeroed (so the pooled
// backing array pins no nodes) and the array is offered back to the
// handle. Every flush path — Recycle, pushRemoval overflow,
// FlushRemovals — funnels through here so the protocol lives in one
// place.
func (h *Handle[K, V]) finishDrain(take []*node[K, V]) {
	for i := range take {
		take[i] = nil
	}
	h.restoreBuf(take[:0])
}

// restoreBuf hands the (now-drained) backing array back to the handle so
// steady-state flushing allocates nothing.
func (h *Handle[K, V]) restoreBuf(buf []*node[K, V]) {
	h.bufMu.Lock()
	if h.buf == nil && !h.closed {
		h.buf = buf
	}
	h.bufMu.Unlock()
}

// bankStats moves the handle's counters into the map's retired
// accumulator, under the same mutex RangeStats aggregates under, so a
// snapshot can never catch a value on both sides of a move (no double
// count, no loss — successive RangeStats snapshots are monotone and Sub
// deltas non-negative). The Load guard keeps the common all-zero bank
// (point operations never touch these counters) to plain reads; m.mu is
// uncontended on that path outside registry churn and stats scrapes.
func (h *Handle[K, V]) bankStats() {
	st := &h.stats
	if st.RangeFastAttempts.Load()|st.RangeFastAborts.Load()|
		st.RangeFastCommits.Load()|st.RangeSlowCommits.Load() == 0 {
		return // nothing to move; skipping the lock cannot affect a snapshot
	}
	bank := func(c *atomic.Uint64, r *atomic.Uint64) {
		if v := c.Load(); v != 0 {
			r.Add(v)
			c.Store(0) // owner-exclusive writer, so no increments are lost
		}
	}
	m := h.m
	m.mu.Lock()
	bank(&st.RangeFastAttempts, &m.retired.fastAttempts)
	bank(&st.RangeFastAborts, &m.retired.fastAborts)
	bank(&st.RangeFastCommits, &m.retired.fastCommits)
	bank(&st.RangeSlowCommits, &m.retired.slowCommits)
	m.mu.Unlock()
}

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
	return TwoPathRange(m.cfg, &h.stats, &h.adaptSkip,
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
func TwoPathRange[K comparable, V any](cfg Config, stats *HandleStats, adaptSkip *int,
	fast func() ([]Pair[K, V], error), slow func() []Pair[K, V]) []Pair[K, V] {
	tryFast := !cfg.SlowOnly
	if tryFast && cfg.Adaptive && *adaptSkip > 0 {
		*adaptSkip--
		tryFast = false
	}
	if tryFast {
		for i := 0; cfg.FastOnly || i < fastPathTries; i++ {
			stats.RangeFastAttempts.Add(1)
			res, err := fast()
			if err == nil {
				stats.RangeFastCommits.Add(1)
				*adaptSkip = 0
				return res
			}
			stats.RangeFastAborts.Add(1)
		}
		if cfg.Adaptive {
			*adaptSkip = cfg.AdaptiveSkip
		}
	}
	res := slow()
	stats.RangeSlowCommits.Add(1)
	return res
}

// afterRemove routes a logically deleted node to the RQC, through the
// handle's removal buffer when buffering is enabled. The buffer push is
// an on-commit hook — the handle is the target, the node the payload —
// because if the enclosing transaction aborts, the node was never
// actually removed and must not be unstitched.
func (m *Map[K, V]) afterRemove(tx *stm.Tx, h *Handle[K, V], n *node[K, V]) {
	if h == nil || m.cfg.RemovalBufferSize == 0 {
		m.rqc.afterRemove(tx, m, n)
		return
	}
	tx.OnCommit((*removalHook[K, V])(h), unsafe.Pointer(n))
}

// removalHook is the Handle as a commit-hook target; the separate name
// keeps the hook method out of Handle's exported method set.
type removalHook[K comparable, V any] Handle[K, V]

func (h *removalHook[K, V]) Committed(arg unsafe.Pointer) {
	(*Handle[K, V])(h).pushRemoval((*node[K, V])(arg))
}

// pushRemoval appends one committed removal to the buffer, flushing when
// the buffer reaches Config.RemovalBufferSize. A node committed against
// a closed (or mid-handoff) handle is routed to the orphan queue, so no
// removal can strand in a buffer nobody will flush.
func (h *Handle[K, V]) pushRemoval(n *node[K, V]) {
	h.bufMu.Lock()
	if h.buf == nil {
		h.bufMu.Unlock()
		h.m.orphanNode(n)
		return
	}
	h.buf = append(h.buf, n)
	if len(h.buf) < h.m.cfg.RemovalBufferSize {
		h.bufLen.Store(int32(len(h.buf)))
		h.bufMu.Unlock()
		return
	}
	take := h.buf
	h.buf = nil
	h.bufLen.Store(0)
	h.bufMu.Unlock()
	h.m.drainNodes(take)
	h.finishDrain(take)
}

// FlushRemovals drains the handle's removal buffer in bounded
// transactional batches: chunks are unstitched immediately when no
// slow-path range query is in flight and spliced onto the most recent
// query's deferred list otherwise (§4.5). It is safe to call from any
// goroutine, concurrent with the owner's operations — the buffer is
// swapped out under the handle's buffer lock and drained outside it.
// Tests and quiescence points may call it directly; it is otherwise
// automatic once the buffer fills.
func (h *Handle[K, V]) FlushRemovals() {
	if take := h.takeBuf(); take != nil {
		h.m.drainNodes(take)
		h.finishDrain(take)
	}
}

// Stats returns a snapshot of the handle's counters.
func (h *Handle[K, V]) Stats() (attempts, fastAborts, fastCommits, slowCommits uint64) {
	return h.stats.RangeFastAttempts.Load(),
		h.stats.RangeFastAborts.Load(),
		h.stats.RangeFastCommits.Load(),
		h.stats.RangeSlowCommits.Load()
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

// RangeStats aggregates counters across all registered handles plus the
// retired accumulator (closed handles and released pooled handles bank
// their counters there, so history survives handle turnover). The whole
// aggregation runs under m.mu — the mutex bankStats moves counters
// under — so snapshots are exact with respect to banking and successive
// snapshots never decrease (Sub deltas stay non-negative).
func (m *Map[K, V]) RangeStats() RangeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s RangeStats
	for _, h := range m.handles {
		s.FastAttempts += h.stats.RangeFastAttempts.Load()
		s.FastAborts += h.stats.RangeFastAborts.Load()
		s.FastCommits += h.stats.RangeFastCommits.Load()
		s.SlowCommits += h.stats.RangeSlowCommits.Load()
	}
	s.FastAttempts += m.retired.fastAttempts.Load()
	s.FastAborts += m.retired.fastAborts.Load()
	s.FastCommits += m.retired.fastCommits.Load()
	s.SlowCommits += m.retired.slowCommits.Load()
	return s
}

// Map.Atomic, the iterators and SnapshotChunks borrow a pooled transient
// handle (the per-operation convenience methods live one layer up, on
// shard.Sharded, over that layer's own pool). Every dirty release
// recycles the handle — counters banked, buffered removals handed to the
// orphan queue — so a handle the pool later drops under GC pressure
// cannot strand removals or grow the registry.

func (m *Map[K, V]) borrow() *Handle[K, V] { return m.handlePool.Get().(*Handle[K, V]) }

// release recycles a borrowed handle before returning it to the pool;
// for Atomic, whose body may have dirtied it (removals buffer, ranges
// touch the counters).
func (m *Map[K, V]) release(h *Handle[K, V]) {
	h.Recycle()
	m.handlePool.Put(h)
}

// releaseClean returns a borrowed handle without the recycle pass; only
// for operations that can neither buffer a removal nor touch a
// range-path counter (iteration, snapshot chunks). Dirty paths always
// release through release(), so a pooled handle's buffer is empty by
// invariant.
func (m *Map[K, V]) releaseClean(h *Handle[K, V]) { m.handlePool.Put(h) }

// Quiesce flushes every registered handle's removal buffer and drains
// the orphan queue. It is safe concurrent with in-flight operations
// (buffer handoff happens under each handle's buffer lock); removals
// that commit after Quiesce returns are, of course, not covered. Tests
// call it before auditing invariants; servers may call it at idle
// points to reclaim eagerly.
func (m *Map[K, V]) Quiesce() {
	m.mu.Lock()
	handles := make([]*Handle[K, V], len(m.handles))
	copy(handles, m.handles)
	m.mu.Unlock()
	for _, h := range handles {
		h.FlushRemovals()
	}
	m.adoptOrphans()
}
