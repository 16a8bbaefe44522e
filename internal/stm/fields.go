package stm

import (
	"sync/atomic"
	"unsafe"
)

// Transactional fields. Each field belongs to an object that embeds an
// Orec; the orec is passed to every access so the runtime can validate
// (reads) or acquire (writes) it. Fields are backed by atomics so that
// the optimistic read protocol is free of data races: a racing writer
// holds the orec, and the post-read orec check discards any value read
// concurrently with it.
//
// Immutable state (keys, heights, insertion times fixed before
// publication) should be stored in plain Go fields: the paper's §2.2
// calls out const-field optimization as a key latency lever, and it falls
// out naturally here because published pointers are only ever obtained
// through atomic loads, giving the necessary happens-before edge.

// Ptr is a transactional pointer field of type *T. The slot is a raw
// unsafe.Pointer (always holding a *T) accessed through sync/atomic, so
// the undo log can record its pre-transaction image as a plain untyped
// word instead of a per-store closure.
type Ptr[T any] struct {
	p unsafe.Pointer // *T
}

// Load transactionally reads the pointer. o must be the orec of the
// object the field belongs to.
func (f *Ptr[T]) Load(tx *Tx, o *Orec) *T {
	w, mine := tx.readOrec(o)
	v := (*T)(atomic.LoadPointer(&f.p))
	if !mine {
		tx.postRead(o, w)
	}
	return v
}

// Store transactionally writes the pointer, acquiring o on first write.
func (f *Ptr[T]) Store(tx *Tx, o *Orec, v *T) {
	tx.acquire(o)
	tx.logUndoPtr(&f.p, atomic.LoadPointer(&f.p))
	atomic.StorePointer(&f.p, unsafe.Pointer(v))
}

// Init sets the pointer without any transactional bookkeeping. It is only
// safe before the owning object is published (e.g. while wiring a freshly
// allocated node that no other transaction can reach).
func (f *Ptr[T]) Init(v *T) { atomic.StorePointer(&f.p, unsafe.Pointer(v)) }

// Raw returns the current pointer without validation. It is intended for
// tests, debug checks, single-threaded post-quiescence audits, and the
// optimistic read fast path (which validates via OrecSample instead).
func (f *Ptr[T]) Raw() *T { return (*T)(atomic.LoadPointer(&f.p)) }

// U64 is a transactional uint64 field.
type U64 struct {
	v atomic.Uint64
}

// Load transactionally reads the value.
func (f *U64) Load(tx *Tx, o *Orec) uint64 {
	w, mine := tx.readOrec(o)
	v := f.v.Load()
	if !mine {
		tx.postRead(o, w)
	}
	return v
}

// Store transactionally writes the value, acquiring o on first write.
func (f *U64) Store(tx *Tx, o *Orec, v uint64) {
	tx.acquire(o)
	tx.logUndoU64(&f.v, f.v.Load())
	f.v.Store(v)
}

// Init sets the value without transactional bookkeeping; see Ptr.Init.
func (f *U64) Init(v uint64) { f.v.Store(v) }

// Raw returns the current value without validation; see Ptr.Raw.
func (f *U64) Raw() uint64 { return f.v.Load() }

// Val is a transactional value field for small value types (stored
// boxed). Use Ptr directly when the value is naturally a pointer.
type Val[T any] struct {
	p unsafe.Pointer // *T
}

// Load transactionally reads the value. The zero value of T is returned
// if the field was never stored.
func (f *Val[T]) Load(tx *Tx, o *Orec) T {
	w, mine := tx.readOrec(o)
	p := (*T)(atomic.LoadPointer(&f.p))
	if !mine {
		tx.postRead(o, w)
	}
	if p == nil {
		var zero T
		return zero
	}
	return *p
}

// Store transactionally writes the value, acquiring o on first write.
func (f *Val[T]) Store(tx *Tx, o *Orec, v T) {
	tx.acquire(o)
	tx.logUndoPtr(&f.p, atomic.LoadPointer(&f.p))
	atomic.StorePointer(&f.p, unsafe.Pointer(&v))
}

// Init sets the value without transactional bookkeeping; see Ptr.Init.
func (f *Val[T]) Init(v T) { atomic.StorePointer(&f.p, unsafe.Pointer(&v)) }

// Raw returns the current value without validation; see Ptr.Raw.
func (f *Val[T]) Raw() T {
	p := (*T)(atomic.LoadPointer(&f.p))
	if p == nil {
		var zero T
		return zero
	}
	return *p
}
