package shard

import (
	"repro/internal/core"
	"repro/internal/stm"
)

// Handle is a per-goroutine context over a Sharded map. It owns one
// core.Handle per shard (each with its own search scratch), the
// per-shard segment buffers the k-way merge reuses, and a striped cell
// of the map's cross-shard range-path counters. A Handle must not be
// used concurrently; create one per worker with Sharded.NewHandle. hs,
// segs, heads and bound are indexed like the map's shards.
type Handle[K comparable, V any] struct {
	s     *Sharded[K, V]
	hs    []*core.Handle[K, V]
	segs  [][]Pair[K, V]
	heads []int
	// txn is the view Atomic hands its closure and bound that view's
	// lazily made per-shard bindings (cleared per attempt), kept here so
	// a batch allocates neither; a Handle runs one Atomic at a time.
	txn   Txn[K, V]
	bound []*core.Txn[K, V]
	cell  *core.CounterCell
	// adaptSkip counts remaining cross-shard range queries that bypass
	// the fast path under Config.Adaptive.
	adaptSkip int
}

// NewHandle creates a handle bound to s.
func (s *Sharded[K, V]) NewHandle() *Handle[K, V] {
	n := len(s.maps)
	h := &Handle[K, V]{
		s:     s,
		hs:    make([]*core.Handle[K, V], n),
		segs:  make([][]Pair[K, V], n),
		heads: make([]int, n),
		bound: make([]*core.Txn[K, V], n),
		cell:  s.counters.Cell(),
	}
	for i, m := range s.maps {
		h.hs[i] = m.NewHandle()
	}
	return h
}

// home returns the sub-handle of the shard that owns k.
func (h *Handle[K, V]) home(k K) *core.Handle[K, V] {
	s := h.s
	return h.hs[s.idxFor(mix(s.hash(k)))]
}

// Sharded returns the map this handle operates on.
func (h *Handle[K, V]) Sharded() *Sharded[K, V] { return h.s }

// Close does nothing, like core.Handle.Close: the handle holds nothing
// its map needs back.
func (h *Handle[K, V]) Close() {}

// Point operations route to exactly one shard and inherit the skip
// hash's O(1) complexity untouched.

// Lookup returns the value associated with k.
func (h *Handle[K, V]) Lookup(k K) (V, bool) { return h.home(k).Lookup(k) }

// Contains reports whether k is present.
func (h *Handle[K, V]) Contains(k K) bool { return h.home(k).Contains(k) }

// Insert adds (k, v) if k is absent and reports whether it did.
func (h *Handle[K, V]) Insert(k K, v V) bool { return h.home(k).Insert(k, v) }

// Remove deletes k and reports whether it was present.
func (h *Handle[K, V]) Remove(k K) bool { return h.home(k).Remove(k) }

// Put sets k to v unconditionally, reporting whether a previous value
// was replaced.
func (h *Handle[K, V]) Put(k K, v V) bool { return h.home(k).Put(k, v) }

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

// reduce runs the per-shard point query q against every shard and keeps
// the best answer (max when wantMax, min otherwise).
func (h *Handle[K, V]) reduce(k K, wantMax bool, q func(op *core.Txn[K, V], k K) (K, V, bool)) (K, V, bool) {
	s := h.s
	var bk K
	var bv V
	var bok bool
	_ = s.rt.Atomic(func(tx *stm.Tx) error {
		bok = false
		for _, ch := range h.hs {
			ck, cv, ok := q(ch.Bind(tx), k)
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
// safe-node traversal.
func (h *Handle[K, V]) Range(l, r K, out []Pair[K, V]) []Pair[K, V] {
	if len(h.hs) == 1 {
		return h.hs[0].Range(l, r, out) // nothing to merge
	}
	return core.TwoPathRange(h.s.maps[0].Config(), &h.cell.RangeCounters, &h.adaptSkip,
		func() ([]Pair[K, V], error) { return h.rangeFast(l, r, out) },
		func() []Pair[K, V] { return h.rangeSlow(l, r, out) })
}

// rangeFast is the cross-shard fast path: one transaction that walks
// every shard's [l, r] segment and does not retry. Because all shards
// share one runtime, a commit means every segment belongs to the same
// snapshot.
func (h *Handle[K, V]) rangeFast(l, r K, out []Pair[K, V]) ([]Pair[K, V], error) {
	err := h.s.rt.TryOnce(func(tx *stm.Tx) error {
		for i, ch := range h.hs {
			h.segs[i] = ch.Bind(tx).Range(l, r, h.segs[i][:0])
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	return h.merge(out), nil
}

// rangeSlow is the cross-shard slow path: registering with every
// shard's RQC in a single transaction pins every shard's version
// counter at one commit instant, so the per-shard safe-node traversals
// — each individually resumable — jointly reconstruct the snapshot at
// that instant.
func (h *Handle[K, V]) rangeSlow(l, r K, out []Pair[K, V]) []Pair[K, V] {
	srs := make([]*core.SlowRange[K, V], len(h.hs))
	_ = h.s.rt.Atomic(func(tx *stm.Tx) error {
		for i, ch := range h.hs {
			srs[i] = ch.Map().BeginSlowRangeTx(tx, ch, l)
		}
		return nil
	})
	for i, sr := range srs {
		h.segs[i] = sr.Collect(r, h.segs[i][:0])
	}
	for _, sr := range srs {
		sr.Finish()
	}
	return h.merge(out)
}

// merge k-way merges the per-shard segment buffers into out. Segments
// are sorted and pairwise disjoint (the shards partition the key space),
// so a linear selection per element suffices at the shard counts this
// package allows.
func (h *Handle[K, V]) merge(out []Pair[K, V]) []Pair[K, V] {
	less := h.s.less
	idx := h.heads
	clear(idx)
	for {
		best := -1
		for i, seg := range h.segs {
			if idx[i] >= len(seg) {
				continue
			}
			if best < 0 || less(seg[idx[i]].Key, h.segs[best][idx[best]].Key) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, h.segs[best][idx[best]])
		idx[best]++
	}
}
