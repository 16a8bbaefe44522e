package core

import (
	"repro/internal/stm"
)

// Txn provides the skip hash's composable transactional batch API: every
// method call inside one Atomic body executes as a single indivisible
// operation. This is the STM dividend the paper's design methodology
// banks on — multi-key atomicity costs nothing extra to expose.
//
// A Txn is only valid inside the closure it was handed to.
type Txn[K comparable, V any] struct {
	m  *Map[K, V]
	tx *stm.Tx
}

// Atomic runs fn as one transaction over the map. All operations
// performed through op commit or roll back together. Returning a non-nil
// error rolls everything back and propagates the error.
func (m *Map[K, V]) Atomic(fn func(op *Txn[K, V]) error) error {
	return m.rt.Atomic(func(tx *stm.Tx) error {
		return fn(&Txn[K, V]{m: m, tx: tx})
	})
}

// Lookup returns the value associated with k.
func (t *Txn[K, V]) Lookup(k K) (V, bool) { return t.m.lookupTx(t.tx, k) }

// Contains reports whether k is present.
func (t *Txn[K, V]) Contains(k K) bool {
	_, ok := t.m.lookupTx(t.tx, k)
	return ok
}

// Insert adds (k, v) if k is absent and reports whether it did.
func (t *Txn[K, V]) Insert(k K, v V) bool { return t.m.insertTx(t.tx, k, v) }

// Remove deletes k and reports whether it was present.
func (t *Txn[K, V]) Remove(k K) bool { return t.m.removeTx(t.tx, k) }

// Put sets k to v unconditionally, reporting whether a previous value
// was replaced.
func (t *Txn[K, V]) Put(k K, v V) bool { return t.m.putTx(t.tx, k, v) }

// Ceil returns the smallest key >= k and its value.
func (t *Txn[K, V]) Ceil(k K) (K, V, bool) { return t.m.ceilTx(t.tx, k) }

// Succ returns the smallest key > k and its value.
func (t *Txn[K, V]) Succ(k K) (K, V, bool) { return t.m.succTx(t.tx, k) }

// Floor returns the largest key <= k and its value.
func (t *Txn[K, V]) Floor(k K) (K, V, bool) { return t.m.floorTx(t.tx, k) }

// Pred returns the largest key < k and its value.
func (t *Txn[K, V]) Pred(k K) (K, V, bool) { return t.m.predTx(t.tx, k) }

// Range appends every pair with l <= key <= r to out within the
// transaction. The surrounding transaction provides snapshot atomicity,
// so no coordinator involvement is needed.
func (t *Txn[K, V]) Range(l, r K, out []Pair[K, V]) []Pair[K, V] {
	return t.m.rangeTx(t.tx, l, r, out)
}
