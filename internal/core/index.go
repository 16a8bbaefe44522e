package core

import (
	"sync/atomic"

	"repro/internal/stm"
)

// index is Figure 1's hashmap<K, sl_node*>, made intrusive: a fixed array
// of buckets whose chains are threaded through the skip list nodes
// themselves (node.hnext), so routing a key costs bucket → node with no
// separate entry object to allocate on insert or to miss on in between.
// One orec per bucket guards that bucket's head and the hnext link of
// every node on its chain; all operations touch exactly one bucket, so
// two operations conflict only when their keys collide into it.
//
// It is written concretely over node[K, V] rather than as a generic map
// with a "chainable" constraint so that the probe path is direct field
// access, with no dictionary-dispatched call per chain step. The
// standalone transactional hash map (the paper's "Hash Map (STM)"
// baseline) stays in package thashmap.
type index[K comparable, V any] struct {
	hash    func(K) uint64
	buckets []indexBucket[K, V]
}

type indexBucket[K comparable, V any] struct {
	orec stm.Orec
	head stm.Ptr[node[K, V]]
}

// newIndex creates an index with nBuckets chains. hash must be
// deterministic and should distribute keys uniformly; nBuckets should be
// prime. nBuckets below 1 panics: the table cannot be grown, so a silent
// fallback would hide a configuration bug.
func newIndex[K comparable, V any](hash func(K) uint64, nBuckets int) index[K, V] {
	if nBuckets < 1 {
		panic("core: bucket count must be positive")
	}
	return index[K, V]{hash: hash, buckets: make([]indexBucket[K, V], nBuckets)}
}

func (ix *index[K, V]) bucketFor(k K) *indexBucket[K, V] { return ix.bucketAt(ix.hash(k)) }

// bucketAt returns the bucket of a key whose hash is hk.
func (ix *index[K, V]) bucketAt(hk uint64) *indexBucket[K, V] {
	return &ix.buckets[hk%uint64(len(ix.buckets))]
}

// getTx returns the node indexed under k, or nil if k is absent.
func (ix *index[K, V]) getTx(tx *stm.Tx, k K) *node[K, V] {
	b := ix.bucketFor(k)
	for n := b.head.Load(tx, &b.orec); n != nil; n = n.hnext.Load(tx, &b.orec) {
		if n.key == k {
			return n
		}
	}
	return nil
}

// fastWalkHook, when installed, runs between a fast walk's orec sample
// and its revalidation, so tests can deterministically force a
// concurrent write into the validation window.
var fastWalkHook atomic.Pointer[func()]

// setFastWalkHook installs fn (nil removes it) to run inside every
// getFast between sample and validation. Test instrumentation only.
func setFastWalkHook(fn func()) {
	if fn == nil {
		fastWalkHook.Store(nil)
		return
	}
	fastWalkHook.Store(&fn)
}

// getFast looks k up optimistically, without a transaction or a clock
// sample: sample the bucket's orec, walk the chain through the links'
// atomic backing, revalidate. ok reports whether the walk validated — on
// false the caller must fall back to getTx, and n is meaningless.
//
// Threading the chain through the nodes leaves the optimistic-read
// argument what it was with separate entries, because three things still
// hold. (1) The single bucket orec guards every link the walk
// dereferences — the head and the hnext of each node hanging from it —
// so one sample covers the whole walk, and any commit that changes the
// chain in between releases that orec at a strictly newer version and
// fails the revalidation. (2) A node is linked into a chain exactly once:
// insertTx always mints a fresh node, LoadSorted — the one other place a
// node is chained — pushes each fresh node once before any reader can
// see the map, and removal never re-links one, so a node the walk
// reaches can not have been recycled under it into another chain or
// another position (no ABA on the links). (3) The raw walk terminates
// even when torn: a node's hnext is set at insertion (or by LoadSorted)
// to the then head and afterwards only ever shortened to its successor's
// successor (or restored by an undo), so every link — including the
// frozen link of a node already spliced out — points at a strictly older
// node, and the chain is acyclic at every instant. Keys are immutable
// once a node is published, so the comparison needs no validation of its
// own.
func (ix *index[K, V]) getFast(k K) (n *node[K, V], ok bool) {
	b := ix.bucketFor(k)
	s, ok := b.orec.Sample()
	if !ok {
		return nil, false
	}
	for n = b.head.Raw(); n != nil; n = n.hnext.Raw() {
		if n.key == k {
			break
		}
	}
	if h := fastWalkHook.Load(); h != nil {
		(*h)()
	}
	if !s.Valid() {
		return nil, false
	}
	return n, true
}

// insertTx links n at the head of its key's chain. The caller has
// established, in this transaction, that the key is absent, and n is a
// fresh node that has never been on a chain (see getFast).
func (ix *index[K, V]) insertTx(tx *stm.Tx, n *node[K, V]) {
	b := ix.bucketFor(n.key)
	n.hnext.Init(b.head.Load(tx, &b.orec))
	b.head.Store(tx, &b.orec, n)
}

// removeTx unlinks the node indexed under k, whose hash is hk, and
// returns it, or nil if k is absent. The removed node keeps its hnext:
// a concurrent fast walk standing on it continues into the rest of the
// chain and is discarded by its revalidation.
func (ix *index[K, V]) removeTx(tx *stm.Tx, k K, hk uint64) *node[K, V] {
	b := ix.bucketAt(hk)
	var prev *node[K, V]
	for n := b.head.Load(tx, &b.orec); n != nil; n = n.hnext.Load(tx, &b.orec) {
		if n.key == k {
			succ := n.hnext.Load(tx, &b.orec)
			if prev == nil {
				b.head.Store(tx, &b.orec, succ)
			} else {
				prev.hnext.Store(tx, &b.orec, succ)
			}
			return n
		}
		prev = n
	}
	return nil
}

// forEachSlow visits every indexed node with its bucket number, without
// transactional protection; the map must be quiescent. Iteration stops
// if fn returns false.
func (ix *index[K, V]) forEachSlow(fn func(bucket int, n *node[K, V]) bool) {
	for i := range ix.buckets {
		for n := ix.buckets[i].head.Raw(); n != nil; n = n.hnext.Raw() {
			if !fn(i, n) {
				return
			}
		}
	}
}
