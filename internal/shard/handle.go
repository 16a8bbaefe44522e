package shard

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/stm"
)

// Handle is a per-goroutine context over a Sharded map. It owns one
// core.Handle per shard (each with its own search scratch and removal
// buffer), the per-shard segment buffers the k-way merge reuses, and
// the shard-level range-path counters. A Handle must not be used
// concurrently; create one per worker with Sharded.NewHandle and Close
// it when the worker is done, so the handle (and its per-shard
// sub-handles) leave the registries and any buffered removals reach the
// shards' orphan queues. When a Resize swaps the route table, the
// handle rebinds lazily at its next operation, reusing sub-handles of
// surviving shards and closing those of retired ones.
type Handle[K comparable, V any] struct {
	s *Sharded[K, V]
	// tab is the route table hs/segs/heads are aligned to.
	tab   *route[K, V]
	hs    []*core.Handle[K, V]
	segs  [][]Pair[K, V]
	heads []int
	// txn is the view Atomic hands its closure and bound that view's
	// lazily made per-shard bindings (cleared per attempt), kept here so
	// a batch allocates neither; a Handle runs one Atomic at a time.
	txn   Txn[K, V]
	bound []*core.Txn[K, V]
	// auth is the scratch the multi-shard paths collect the
	// authoritative shard indices into during a migration.
	auth []int
	// stripe is the handle's pin-counter stripe (see resize.go).
	stripe uint32
	stats  core.HandleStats
	// adaptSkip counts remaining cross-shard range queries that bypass
	// the fast path under Config.Adaptive.
	adaptSkip int
	// registered records membership in Sharded.handles; pooled transient
	// handles bank their counters on release instead. It is written only
	// at construction. closed is atomic so concurrent Close calls (a
	// worker's deferred Close racing a teardown sweep) are safe, matching
	// the core handle's contract.
	registered bool
	closed     atomic.Bool
}

func (s *Sharded[K, V]) newHandle(registered bool) *Handle[K, V] {
	h := &Handle[K, V]{
		s:          s,
		stripe:     s.stripeCtr.Add(1) & (pinStripes - 1),
		registered: registered,
	}
	t := s.enter(h.stripe)
	h.rebind(t)
	s.exit(t, h.stripe)
	return h
}

// NewHandle creates a handle bound to s and registers it — and its
// per-shard sub-handles — for stats aggregation.
func (s *Sharded[K, V]) NewHandle() *Handle[K, V] {
	h := s.newHandle(true)
	s.mu.Lock()
	s.handles = append(s.handles, h)
	s.mu.Unlock()
	return h
}

// NewTransientHandle creates a handle that is tracked by no registry —
// neither the sharded map's nor any shard's. Its counters and buffered
// removals only reach the map when Recycle or Close banks them; the
// pooled convenience paths are built on transient handles so pool churn
// cannot grow the registries or strand removals. Explicit workers
// normally want NewHandle instead.
func (s *Sharded[K, V]) NewTransientHandle() *Handle[K, V] {
	return s.newHandle(false)
}

// rebind aligns the handle's per-shard state with t's shard list,
// reusing sub-handles by map identity (a resize keeps surviving shards'
// handles warm) and closing those whose shards left the table.
func (h *Handle[K, V]) rebind(t *route[K, V]) {
	old := h.hs
	h.hs = make([]*core.Handle[K, V], len(t.maps))
	for i, m := range t.maps {
		for j, ch := range old {
			if ch != nil && ch.Map() == m {
				h.hs[i], old[j] = ch, nil
				break
			}
		}
		if h.hs[i] == nil {
			if h.registered {
				h.hs[i] = m.NewHandle()
			} else {
				h.hs[i] = m.NewTransientHandle()
			}
		}
	}
	for _, ch := range old {
		if ch != nil {
			ch.Close()
		}
	}
	for len(h.segs) < len(t.maps) {
		h.segs = append(h.segs, nil)
	}
	h.segs = h.segs[:len(t.maps)]
	if len(h.heads) < len(t.maps) {
		h.heads = make([]int, len(t.maps))
	}
	h.bound = make([]*core.Txn[K, V], len(t.maps))
	h.tab = t
}

// at returns the sub-handle for maps index idx under table t, rebinding
// first when the table moved since the handle's last operation.
func (h *Handle[K, V]) at(t *route[K, V], idx int) *core.Handle[K, V] {
	if h.tab != t {
		h.rebind(t)
	}
	return h.hs[idx]
}

// pointEnter pins the route table and, during a migration, the key's
// group gate, and returns the authoritative sub-handle for k. The
// caller runs its operation and then calls pointExit(t, g).
func (h *Handle[K, V]) pointEnter(k K) (ch *core.Handle[K, V], t *route[K, V], g int) {
	s := h.s
	t = s.enter(h.stripe)
	mixed := mix(s.hash(k))
	g = -1
	if m := t.mig; m != nil {
		g = m.groupOf(mixed)
		m.gates[g].RLock()
	}
	return h.at(t, t.idxFor(mixed)), t, g
}

func (h *Handle[K, V]) pointExit(t *route[K, V], g int) {
	if g >= 0 {
		t.mig.gates[g].RUnlock()
	}
	h.s.exit(t, h.stripe)
}

// authEnter pins the route table, acquires every migration gate when a
// resize is in flight, and returns the authoritative shard indices —
// the set covering the key space exactly once for as long as the gates
// are held. The caller must call authExit(t).
func (h *Handle[K, V]) authEnter() (*route[K, V], []int) {
	t := h.s.enter(h.stripe)
	if h.tab != t {
		h.rebind(t)
	}
	m := t.mig
	if m == nil {
		return t, t.steadyAuth
	}
	for g := range m.gates {
		m.gates[g].RLock()
	}
	h.auth = m.authIndices(h.auth[:0])
	return t, h.auth
}

func (h *Handle[K, V]) authExit(t *route[K, V]) {
	if m := t.mig; m != nil {
		for g := range m.gates {
			m.gates[g].RUnlock()
		}
	}
	h.s.exit(t, h.stripe)
}

// Sharded returns the map this handle operates on.
func (h *Handle[K, V]) Sharded() *Sharded[K, V] { return h.s }

// Close retires the handle: every per-shard sub-handle is closed (its
// buffered removals reach that shard's orphan queue), the shard-level
// counters are banked, and — for handles created with NewHandle — the
// handle leaves the registry. Close is idempotent; the owning goroutine
// must issue no further operations through the handle.
func (h *Handle[K, V]) Close() {
	if h.closed.Swap(true) {
		return
	}
	for _, ch := range h.hs {
		ch.Close()
	}
	h.bankStats()
	if !h.registered {
		return
	}
	s := h.s
	s.mu.Lock()
	for i, other := range s.handles {
		if other == h {
			last := len(s.handles) - 1
			s.handles[i] = s.handles[last]
			s.handles[last] = nil
			s.handles = s.handles[:last]
			break
		}
	}
	s.mu.Unlock()
}

// Recycle banks the handle's counters and hands every sub-handle's
// buffered removals to its shard's orphan queue while leaving the
// handle usable; the pooled convenience paths call it on every release.
// Clean sub-handles (every shard a point op did not touch) recycle with
// a few atomic loads and no lock, so the per-release cost does not grow
// into O(shards) mutex acquisitions.
func (h *Handle[K, V]) Recycle() {
	for _, ch := range h.hs {
		ch.Recycle()
	}
	h.bankStats()
}

// bankStats moves the shard-level counters into the map's retired
// accumulator under s.mu — the mutex RangeStats aggregates under — so a
// snapshot can never catch a value on both sides of the move; exactly
// the core handle's protocol (see core.Handle.bankStats).
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
	s := h.s
	s.mu.Lock()
	bank(&st.RangeFastAttempts, &s.retired.RangeFastAttempts)
	bank(&st.RangeFastAborts, &s.retired.RangeFastAborts)
	bank(&st.RangeFastCommits, &s.retired.RangeFastCommits)
	bank(&st.RangeSlowCommits, &s.retired.RangeSlowCommits)
	s.mu.Unlock()
}

// FlushRemovals drains the removal buffers of every per-shard handle in
// bounded batches; safe concurrent with the owner's operations.
func (h *Handle[K, V]) FlushRemovals() {
	for _, ch := range h.hs {
		ch.FlushRemovals()
	}
}

// Stats returns a snapshot of the handle's shard-level range counters.
func (h *Handle[K, V]) Stats() (attempts, fastAborts, fastCommits, slowCommits uint64) {
	return h.stats.RangeFastAttempts.Load(),
		h.stats.RangeFastAborts.Load(),
		h.stats.RangeFastCommits.Load(),
		h.stats.RangeSlowCommits.Load()
}

// Point operations route to exactly one shard and inherit the skip
// hash's O(1) complexity untouched.

// Lookup returns the value associated with k.
func (h *Handle[K, V]) Lookup(k K) (V, bool) {
	ch, t, g := h.pointEnter(k)
	v, ok := ch.Lookup(k)
	h.pointExit(t, g)
	return v, ok
}

// Contains reports whether k is present.
func (h *Handle[K, V]) Contains(k K) bool {
	ch, t, g := h.pointEnter(k)
	ok := ch.Contains(k)
	h.pointExit(t, g)
	return ok
}

// Insert adds (k, v) if k is absent and reports whether it did.
func (h *Handle[K, V]) Insert(k K, v V) bool {
	ch, t, g := h.pointEnter(k)
	ok := ch.Insert(k, v)
	h.pointExit(t, g)
	return ok
}

// Remove deletes k and reports whether it was present.
func (h *Handle[K, V]) Remove(k K) bool {
	ch, t, g := h.pointEnter(k)
	ok := ch.Remove(k)
	h.pointExit(t, g)
	return ok
}

// Put sets k to v unconditionally, reporting whether a previous value
// was replaced.
func (h *Handle[K, V]) Put(k K, v V) bool {
	ch, t, g := h.pointEnter(k)
	ok := ch.Put(k, v)
	h.pointExit(t, g)
	return ok
}

// Point queries probe every shard inside one read-only transaction and
// reduce, so the answer is a snapshot.

// Ceil returns the smallest key >= k and its value.
func (h *Handle[K, V]) Ceil(k K) (K, V, bool) {
	return h.reduce(k, false, func(op *core.Txn[K, V], k K) (K, V, bool) { return op.Ceil(k) })
}

// Succ returns the smallest key > k and its value.
func (h *Handle[K, V]) Succ(k K) (K, V, bool) {
	return h.reduce(k, false, func(op *core.Txn[K, V], k K) (K, V, bool) { return op.Succ(k) })
}

// Floor returns the largest key <= k and its value.
func (h *Handle[K, V]) Floor(k K) (K, V, bool) {
	return h.reduce(k, true, func(op *core.Txn[K, V], k K) (K, V, bool) { return op.Floor(k) })
}

// Pred returns the largest key < k and its value.
func (h *Handle[K, V]) Pred(k K) (K, V, bool) {
	return h.reduce(k, true, func(op *core.Txn[K, V], k K) (K, V, bool) { return op.Pred(k) })
}

// reduce runs the per-shard point query q against every authoritative
// shard and keeps the best answer (max when wantMax, min otherwise).
func (h *Handle[K, V]) reduce(k K, wantMax bool, q func(op *core.Txn[K, V], k K) (K, V, bool)) (K, V, bool) {
	s := h.s
	t, auth := h.authEnter()
	defer h.authExit(t)
	var bk K
	var bv V
	var bok bool
	_ = s.rt.Atomic(func(tx *stm.Tx) error {
		bok = false
		for _, i := range auth {
			ck, cv, ok := q(h.hs[i].Bind(tx), k)
			if ok && (!bok || (wantMax && s.less(bk, ck)) || (!wantMax && s.less(ck, bk))) {
				bk, bv, bok = ck, cv, true
			}
		}
		return nil
	})
	return bk, bv, bok
}

// Range appends every pair with l <= key <= r, in key order, to out,
// reproducing the two-path scheme across shards: the fast path collects
// every shard's segment in one try-once transaction; the slow path
// registers a range op with every shard's RQC in one transaction (the
// query's linearization point) and then runs each shard's resumable
// safe-node traversal. During a resize the walk covers the
// authoritative shard set, held stable by the migration gates.
func (h *Handle[K, V]) Range(l, r K, out []Pair[K, V]) []Pair[K, V] {
	t, auth := h.authEnter()
	defer h.authExit(t)
	if len(auth) == 1 {
		return h.hs[auth[0]].Range(l, r, out) // nothing to merge
	}
	return core.TwoPathRange(t.maps[0].Config(), &h.stats, &h.adaptSkip,
		func() ([]Pair[K, V], error) { return h.rangeFast(auth, l, r, out) },
		func() []Pair[K, V] { return h.rangeSlow(auth, l, r, out) })
}

// rangeFast is the cross-shard fast path: one transaction that walks
// every shard's [l, r] segment and does not retry. Because all shards
// share one runtime, a commit means every segment belongs to the same
// snapshot.
func (h *Handle[K, V]) rangeFast(auth []int, l, r K, out []Pair[K, V]) ([]Pair[K, V], error) {
	err := h.s.rt.TryOnce(func(tx *stm.Tx) error {
		for _, i := range auth {
			h.segs[i] = h.hs[i].Bind(tx).Range(l, r, h.segs[i][:0])
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	return h.merge(auth, out), nil
}

// rangeSlow is the cross-shard slow path: registering with every
// shard's RQC in a single transaction pins every shard's version
// counter at one commit instant, so the per-shard safe-node traversals
// — each individually resumable — jointly reconstruct the snapshot at
// that instant.
func (h *Handle[K, V]) rangeSlow(auth []int, l, r K, out []Pair[K, V]) []Pair[K, V] {
	srs := make([]*core.SlowRange[K, V], len(auth))
	_ = h.s.rt.Atomic(func(tx *stm.Tx) error {
		for j, i := range auth {
			srs[j] = h.hs[i].Map().BeginSlowRangeTx(tx, h.hs[i], l)
		}
		return nil
	})
	for j, i := range auth {
		h.segs[i] = srs[j].Collect(r, h.segs[i][:0])
	}
	for j := range srs {
		srs[j].Finish()
	}
	return h.merge(auth, out)
}

// merge k-way merges the per-shard segment buffers of the given shard
// indices into out. Segments are sorted and pairwise disjoint (the
// authoritative shards partition the key space), so a linear selection
// per element suffices at the shard counts this package allows.
func (h *Handle[K, V]) merge(auth []int, out []Pair[K, V]) []Pair[K, V] {
	less := h.s.less
	idx := h.heads[:len(auth)]
	for j := range idx {
		idx[j] = 0
	}
	for {
		best := -1
		for j, i := range auth {
			if idx[j] >= len(h.segs[i]) {
				continue
			}
			if best < 0 || less(h.segs[i][idx[j]].Key, h.segs[auth[best]][idx[best]].Key) {
				best = j
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, h.segs[auth[best]][idx[best]])
		idx[best]++
	}
}
