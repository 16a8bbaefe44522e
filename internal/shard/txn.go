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
	// tab is the route table the batch was admitted under; it is pinned
	// (and, during a migration, gated) for the batch's whole lifetime,
	// so routing decisions inside the batch are stable.
	tab *route[K, V]
	// tx is the enclosing transaction (per-shard views are bound lazily
	// into h.bound) and auth the authoritative index set the multi-shard
	// operations walk.
	tx   *stm.Tx
	auth []int
}

// route returns the core view for k's shard.
func (t *Txn[K, V]) route(k K) *core.Txn[K, V] {
	return t.at(t.tab.idxFor(mix(t.h.s.hash(k))))
}

// at lazily binds and returns the view for maps index i.
func (t *Txn[K, V]) at(i int) *core.Txn[K, V] {
	h := t.h
	if h.bound[i] == nil {
		h.bound[i] = h.hs[i].Bind(t.tx)
	}
	return h.bound[i]
}

// Lookup returns the value associated with k.
func (t *Txn[K, V]) Lookup(k K) (V, bool) { return t.route(k).Lookup(k) }

// Contains reports whether k is present.
func (t *Txn[K, V]) Contains(k K) bool { return t.route(k).Contains(k) }

// Insert adds (k, v) if k is absent and reports whether it did.
func (t *Txn[K, V]) Insert(k K, v V) bool { return t.route(k).Insert(k, v) }

// Remove deletes k and reports whether it was present.
func (t *Txn[K, V]) Remove(k K) bool { return t.route(k).Remove(k) }

// Put sets k to v unconditionally, reporting whether a previous value
// was replaced.
func (t *Txn[K, V]) Put(k K, v V) bool { return t.route(k).Put(k, v) }

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
	for _, i := range t.auth {
		ck, cv, ok := q(t.at(i), k)
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
	for _, i := range t.auth {
		h.segs[i] = t.at(i).Range(l, r, h.segs[i][:0])
	}
	return h.merge(t.auth, out)
}

// Atomic runs fn as one transactional batch over the map: a single STM
// transaction that may span every shard, so all operations commit or
// roll back together, exactly as on a single core.Map. Like any STM
// body, fn may re-execute on conflict and must tolerate that. During a
// resize the batch routes against the authoritative shard set, held
// stable by the migration gates for the batch's duration.
func (h *Handle[K, V]) Atomic(fn func(op *Txn[K, V]) error) error {
	t, auth := h.authEnter()
	defer h.authExit(t)
	return h.s.rt.Atomic(func(tx *stm.Tx) error {
		clear(h.bound)
		h.txn = Txn[K, V]{h: h, tab: t, tx: tx, auth: auth}
		return fn(&h.txn)
	})
}
