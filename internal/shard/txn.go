package shard

import (
	"repro/internal/core"
	"repro/internal/stm"
)

// Txn is the transactional view of a Sharded map inside Atomic.
// Operations may touch any shard and the whole batch commits or rolls
// back together.
//
// A Txn is only valid inside the closure it was handed to: it lives in
// its Handle and the next Atomic (or retry) on that handle overwrites it.
type Txn[K comparable, V any] struct {
	h *Handle[K, V]
	// tx is the enclosing transaction; per-shard views are bound lazily
	// into h.bound.
	tx *stm.Tx
}

// home returns the core view for k's shard.
func (t *Txn[K, V]) home(k K) *core.Txn[K, V] {
	s := t.h.s
	return t.bind(s.idxFor(mix(s.hash(k))))
}

// bind lazily binds and returns the view for shard i.
func (t *Txn[K, V]) bind(i int) *core.Txn[K, V] {
	h := t.h
	if h.bound[i] == nil {
		h.bound[i] = h.hs[i].Bind(t.tx)
	}
	return h.bound[i]
}

// Lookup returns the value associated with k.
func (t *Txn[K, V]) Lookup(k K) (V, bool) { return t.home(k).Lookup(k) }

// Contains reports whether k is present.
func (t *Txn[K, V]) Contains(k K) bool { return t.home(k).Contains(k) }

// Insert adds (k, v) if k is absent and reports whether it did.
func (t *Txn[K, V]) Insert(k K, v V) bool { return t.home(k).Insert(k, v) }

// Remove deletes k and reports whether it was present.
func (t *Txn[K, V]) Remove(k K) bool { return t.home(k).Remove(k) }

// Put sets k to v unconditionally, reporting whether a previous value
// was replaced.
func (t *Txn[K, V]) Put(k K, v V) bool { return t.home(k).Put(k, v) }

// Ceil returns the smallest key >= k and its value.
func (t *Txn[K, V]) Ceil(k K) (K, V, bool) {
	return t.reduce(k, false, func(op *core.Txn[K, V], k K) (K, V, bool) { return op.Ceil(k) })
}

// Succ returns the smallest key > k and its value.
func (t *Txn[K, V]) Succ(k K) (K, V, bool) {
	return t.reduce(k, false, func(op *core.Txn[K, V], k K) (K, V, bool) { return op.Succ(k) })
}

// Floor returns the largest key <= k and its value.
func (t *Txn[K, V]) Floor(k K) (K, V, bool) {
	return t.reduce(k, true, func(op *core.Txn[K, V], k K) (K, V, bool) { return op.Floor(k) })
}

// Pred returns the largest key < k and its value.
func (t *Txn[K, V]) Pred(k K) (K, V, bool) {
	return t.reduce(k, true, func(op *core.Txn[K, V], k K) (K, V, bool) { return op.Pred(k) })
}

func (t *Txn[K, V]) reduce(k K, wantMax bool, q func(op *core.Txn[K, V], k K) (K, V, bool)) (K, V, bool) {
	s := t.h.s
	var bk K
	var bv V
	var bok bool
	for i := range s.maps {
		ck, cv, ok := q(t.bind(i), k)
		if !ok {
			continue
		}
		if !bok || (wantMax && s.less(bk, ck)) || (!wantMax && s.less(ck, bk)) {
			bk, bv, bok = ck, cv, true
		}
	}
	return bk, bv, bok
}

// Range appends every pair with l <= key <= r, in key order, to out
// within the transaction.
func (t *Txn[K, V]) Range(l, r K, out []Pair[K, V]) []Pair[K, V] {
	h := t.h
	for i := range h.segs {
		h.segs[i] = t.bind(i).Range(l, r, h.segs[i][:0])
	}
	return h.merge(out)
}

// Atomic runs fn as one transactional batch over the map: a single STM
// transaction that may span every shard, so all operations commit or
// roll back together, exactly as on a single core.Map. Like any STM
// body, fn may re-execute on conflict and must tolerate that.
func (h *Handle[K, V]) Atomic(fn func(op *Txn[K, V]) error) error {
	return h.s.rt.Atomic(func(tx *stm.Tx) error {
		clear(h.bound)
		h.txn = Txn[K, V]{h: h, tx: tx}
		return fn(&h.txn)
	})
}
