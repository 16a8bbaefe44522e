// Package thashmap implements a transactional closed-addressing hash
// map: the paper's "Hash Map (STM)" baseline for workloads without range
// queries, and the benchmark ladder's hash rung. The skip hash's own
// index (Figure 1's hashmap component) has the same shape but threads its
// chains through the skip list nodes; it lives in internal/core.
//
// The table is a fixed array of buckets, each a singly linked chain of
// immutable-key entries guarded by one ownership record per bucket. All
// operations are O(1) expected time and touch exactly one bucket, so two
// operations conflict only when their keys collide into the same bucket.
package thashmap

import (
	"repro/internal/stm"
)

// DefaultBuckets is the bucket count used by the paper's evaluation: the
// smallest prime for which the expected population of 5*10^5 keys keeps
// the table at or below 70% utilization (§5.1).
const DefaultBuckets = 714341

// Map is a transactional hash map from K to V.
type Map[K comparable, V any] struct {
	rt      *stm.Runtime
	hash    func(K) uint64
	buckets []bucket[K, V]
}

type bucket[K comparable, V any] struct {
	orec stm.Orec
	head stm.Ptr[entry[K, V]]
}

type entry[K comparable, V any] struct {
	key  K // immutable
	val  stm.Val[V]
	next stm.Ptr[entry[K, V]] // guarded by the bucket's orec
}

// New creates a map with nBuckets chains. hash must be deterministic and
// should distribute keys uniformly; nBuckets should be prime (see
// DefaultBuckets). nBuckets below 1 panics: the table cannot be grown, so
// a silent fallback would hide a configuration bug.
func New[K comparable, V any](rt *stm.Runtime, hash func(K) uint64, nBuckets int) *Map[K, V] {
	if nBuckets < 1 {
		panic("thashmap: bucket count must be positive")
	}
	return &Map[K, V]{
		rt:      rt,
		hash:    hash,
		buckets: make([]bucket[K, V], nBuckets),
	}
}

// Runtime returns the STM runtime the map was created with.
func (m *Map[K, V]) Runtime() *stm.Runtime { return m.rt }

func (m *Map[K, V]) bucketFor(k K) *bucket[K, V] {
	return &m.buckets[m.hash(k)%uint64(len(m.buckets))]
}

// GetTx looks k up within an enclosing transaction.
func (m *Map[K, V]) GetTx(tx *stm.Tx, k K) (V, bool) {
	b := m.bucketFor(k)
	for e := b.head.Load(tx, &b.orec); e != nil; e = e.next.Load(tx, &b.orec) {
		if e.key == k {
			return e.val.Load(tx, &b.orec), true
		}
	}
	var zero V
	return zero, false
}

// InsertTx adds the pair (k, v) if k is absent and reports whether it did.
func (m *Map[K, V]) InsertTx(tx *stm.Tx, k K, v V) bool {
	b := m.bucketFor(k)
	for e := b.head.Load(tx, &b.orec); e != nil; e = e.next.Load(tx, &b.orec) {
		if e.key == k {
			return false
		}
	}
	m.prepend(tx, b, k, v)
	return true
}

// PutTx sets k to v, inserting or overwriting; it reports whether a
// previous value was replaced.
func (m *Map[K, V]) PutTx(tx *stm.Tx, k K, v V) bool {
	b := m.bucketFor(k)
	for e := b.head.Load(tx, &b.orec); e != nil; e = e.next.Load(tx, &b.orec) {
		if e.key == k {
			e.val.Store(tx, &b.orec, v)
			return true
		}
	}
	m.prepend(tx, b, k, v)
	return false
}

func (m *Map[K, V]) prepend(tx *stm.Tx, b *bucket[K, V], k K, v V) {
	e := &entry[K, V]{key: k}
	e.val.Init(v)
	e.next.Init(b.head.Load(tx, &b.orec))
	b.head.Store(tx, &b.orec, e)
}

// RemoveTx deletes k and reports whether it was present.
func (m *Map[K, V]) RemoveTx(tx *stm.Tx, k K) bool {
	b := m.bucketFor(k)
	var prev *entry[K, V]
	for e := b.head.Load(tx, &b.orec); e != nil; e = e.next.Load(tx, &b.orec) {
		if e.key == k {
			succ := e.next.Load(tx, &b.orec)
			if prev == nil {
				b.head.Store(tx, &b.orec, succ)
			} else {
				prev.next.Store(tx, &b.orec, succ)
			}
			return true
		}
		prev = e
	}
	return false
}

// Get looks k up in its own transaction.
func (m *Map[K, V]) Get(k K) (V, bool) {
	var v V
	var ok bool
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		v, ok = m.GetTx(tx, k)
		return nil
	})
	return v, ok
}

// Insert adds (k, v) if absent, in its own transaction.
func (m *Map[K, V]) Insert(k K, v V) bool {
	var ok bool
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		ok = m.InsertTx(tx, k, v)
		return nil
	})
	return ok
}

// Put sets k to v in its own transaction; it reports whether a previous
// value was replaced.
func (m *Map[K, V]) Put(k K, v V) bool {
	var replaced bool
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		replaced = m.PutTx(tx, k, v)
		return nil
	})
	return replaced
}

// Remove deletes k in its own transaction and reports whether it was
// present.
func (m *Map[K, V]) Remove(k K) bool {
	var ok bool
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		ok = m.RemoveTx(tx, k)
		return nil
	})
	return ok
}

// SizeSlow counts entries by walking every bucket without transactional
// protection. It is only meaningful when the map is quiescent; use it in
// tests and debugging.
func (m *Map[K, V]) SizeSlow() int {
	n := 0
	for i := range m.buckets {
		for e := m.buckets[i].head.Raw(); e != nil; e = e.next.Raw() {
			n++
		}
	}
	return n
}

// Hash64 is a splitmix64-style mixer suitable as the hash function for
// integer keys (the evaluation's std::hash stand-in).
func Hash64(k int64) uint64 {
	z := uint64(k) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
