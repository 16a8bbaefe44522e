package shard

import (
	"errors"

	"repro/internal/core"
	"repro/internal/stm"
)

// ErrCrossShard is returned by Atomic when shards are isolated and the
// transaction's operations span more than one shard (or need all shards
// at once, as Range and the point queries do). Isolated shards live in
// incomparable STM timestamp domains, so such a batch cannot commit
// atomically; the error makes the limitation explicit instead of
// silently downgrading to per-shard atomicity.
var ErrCrossShard = errors.New("shard: transaction spans multiple isolated shards")

// Txn is the transactional view of a Sharded map inside Atomic. In
// shared mode operations may touch any shard and the whole batch
// commits or rolls back together. In isolated mode the transaction is
// pinned to the shard of the first key it touches; an operation on any
// other shard aborts the batch with ErrCrossShard.
//
// A Txn is only valid inside the closure it was handed to: it lives in
// its Handle and the next Atomic (or retry) on that handle overwrites it.
type Txn[K comparable, V any] struct {
	h *Handle[K, V]
	// tab is the route table the batch was admitted under; it is pinned
	// (and, during a migration, gated) for the batch's whole lifetime,
	// so routing decisions inside the batch are stable.
	tab *route[K, V]

	// Shared mode: the enclosing transaction (per-shard views are bound
	// lazily into h.bound) and the authoritative index set the
	// multi-shard operations walk.
	tx   *stm.Tx
	auth []int

	// Isolated mode: the pinned shard's view ...
	pinned int
	core   *core.Txn[K, V]
	// ... or, before pinning, the routing probe that discovers which
	// shard the first operation needs.
	probe bool
}

// probeDone aborts the routing probe once the first operation's key is
// known; the caller re-routes the mixed hash under the key's migration
// gate, where the group's cutover flag cannot move.
type probeDone struct{ mixed uint64 }

// crossShard aborts a pinned (or probing) transaction that needs a
// shard other than its own.
type crossShard struct{}

// route returns the core view for k's shard, enforcing the pinning
// discipline in isolated mode.
func (t *Txn[K, V]) route(k K) *core.Txn[K, V] {
	mixed := mix(t.h.s.hash(k))
	if t.probe {
		panic(probeDone{mixed: mixed})
	}
	i := t.tab.idxFor(mixed)
	if t.core != nil {
		if i != t.pinned {
			panic(crossShard{})
		}
		return t.core
	}
	return t.at(i)
}

// at lazily binds and returns the shared-mode view for maps index i.
func (t *Txn[K, V]) at(i int) *core.Txn[K, V] {
	h := t.h
	if h.bound[i] == nil {
		h.bound[i] = h.hs[i].Bind(t.tx)
	}
	return h.bound[i]
}

// single returns the lone view of a single-shard steady-state map in
// the probe/pinned paths, or aborts: only shared mode (or a one-shard
// map with no resize in flight) can satisfy an all-shards operation.
func (t *Txn[K, V]) single() *core.Txn[K, V] {
	if len(t.tab.maps) == 1 && t.tab.mig == nil {
		if t.probe {
			panic(probeDone{})
		}
		return t.core
	}
	panic(crossShard{})
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

// Ceil returns the smallest key >= k and its value. Requires shared
// mode (or a single shard): the probe spans every shard.
func (t *Txn[K, V]) Ceil(k K) (K, V, bool) {
	return t.reduce(k, false, func(op *core.Txn[K, V], k K) (K, V, bool) { return op.Ceil(k) })
}

// Succ returns the smallest key > k and its value; see Ceil.
func (t *Txn[K, V]) Succ(k K) (K, V, bool) {
	return t.reduce(k, false, func(op *core.Txn[K, V], k K) (K, V, bool) { return op.Succ(k) })
}

// Floor returns the largest key <= k and its value; see Ceil.
func (t *Txn[K, V]) Floor(k K) (K, V, bool) {
	return t.reduce(k, true, func(op *core.Txn[K, V], k K) (K, V, bool) { return op.Floor(k) })
}

// Pred returns the largest key < k and its value; see Ceil.
func (t *Txn[K, V]) Pred(k K) (K, V, bool) {
	return t.reduce(k, true, func(op *core.Txn[K, V], k K) (K, V, bool) { return op.Pred(k) })
}

func (t *Txn[K, V]) reduce(k K, wantMax bool, q func(op *core.Txn[K, V], k K) (K, V, bool)) (K, V, bool) {
	if t.probe || t.core != nil {
		return q(t.single(), k)
	}
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
// within the transaction. Requires shared mode (or a single shard): the
// collection spans every shard.
func (t *Txn[K, V]) Range(l, r K, out []Pair[K, V]) []Pair[K, V] {
	h := t.h
	if t.probe || t.core != nil {
		return t.single().Range(l, r, out)
	}
	for _, i := range t.auth {
		h.segs[i] = t.at(i).Range(l, r, h.segs[i][:0])
	}
	return h.merge(t.auth, out)
}

// Atomic runs fn as one transactional batch over the map.
//
// In shared mode (the default) the batch is a single STM transaction
// that may span every shard: all operations commit or roll back
// together, exactly as on a single core.Map. During a resize the batch
// routes against the authoritative shard set, held stable by the
// migration gates for the batch's duration.
//
// In isolated mode the batch is pinned to one shard. A routing pass
// first discovers the shard of the first operation (fn may therefore
// run one extra time; like the STM retry loop, it must tolerate
// re-execution), then fn runs as a transaction on that shard alone.
// Single-key batches — and any batch whose keys co-hash — keep full
// transactional semantics; a batch that touches a second shard fails
// with ErrCrossShard and leaves the map unchanged. Operations that need
// all shards at once (Range, Ceil, Floor, Succ, Pred) fail the same way
// unless the map has a single shard. A resize narrows co-hashing
// transiently: keys that shared a shard may land on different
// destination shards once their group cuts over.
func (h *Handle[K, V]) Atomic(fn func(op *Txn[K, V]) error) error {
	s := h.s
	if !s.isolated {
		t, auth := h.authEnter()
		defer h.authExit(t)
		return s.rt.Atomic(func(tx *stm.Tx) error {
			clear(h.bound)
			h.txn = Txn[K, V]{h: h, tab: t, tx: tx, auth: auth}
			return fn(&h.txn)
		})
	}
	t := s.enter(h.stripe)
	defer s.exit(t, h.stripe)
	if h.tab != t {
		h.rebind(t)
	}
	mixed, err, decided := h.probeShard(t, fn)
	if !decided {
		return err // fn performed no map operations, or crossed shards
	}
	if m := t.mig; m != nil {
		g := m.groupOf(mixed)
		m.gates[g].RLock()
		defer m.gates[g].RUnlock()
	}
	return h.runPinned(t, t.idxFor(mixed), fn)
}

// probeShard runs fn against a routing probe. decided reports whether a
// first operation produced a routing hash; otherwise err carries fn's
// outcome (its plain return when it performed no operations, or
// ErrCrossShard when its first operation already needed every shard).
func (h *Handle[K, V]) probeShard(t *route[K, V], fn func(op *Txn[K, V]) error) (mixed uint64, err error, decided bool) {
	defer func() {
		if p := recover(); p != nil {
			switch pd := p.(type) {
			case probeDone:
				mixed, decided = pd.mixed, true
				err = nil
			case crossShard:
				err = ErrCrossShard
			default:
				panic(p)
			}
		}
	}()
	h.txn = Txn[K, V]{h: h, tab: t, probe: true}
	return 0, fn(&h.txn), false
}

// runPinned executes fn as a transaction on the pinned shard,
// converting a cross-shard abort into ErrCrossShard after the STM layer
// has rolled the attempt back.
func (h *Handle[K, V]) runPinned(t *route[K, V], pin int, fn func(op *Txn[K, V]) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(crossShard); ok {
				err = ErrCrossShard
				return
			}
			panic(p)
		}
	}()
	return h.hs[pin].Atomic(func(op *core.Txn[K, V]) error {
		h.txn = Txn[K, V]{h: h, tab: t, pinned: pin, core: op}
		return fn(&h.txn)
	})
}
