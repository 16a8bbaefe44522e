package stm

import (
	"sync/atomic"
	"unsafe"
)

// Optimistic non-transactional reads. The paper's §2.2 observes that a
// read-only transaction should cost almost nothing; a single-orec point
// read can go further and skip the transaction machinery entirely. The
// protocol is the classic sampled-word validation (a seqlock with the
// orec as the sequence word): sample the orec, fail if a writer holds
// it, read the guarded fields directly through their atomic backing,
// then revalidate that the word is unchanged. Any transaction that
// commits a change to the guarded object in between bumps the word to a
// fresh (strictly increasing) version, and any in-flight writer sets
// the lock bit, so a validated read observed exactly one committed
// state — the one current at the sample instant, which is therefore the
// read's linearization point.
//
// No clock sample is needed: a transaction's start timestamp exists to
// make reads of *multiple* orecs mutually consistent, and a point read
// validates exactly one. Skipping the clock keeps the hit path free of
// the commit clock entirely (a nanotime call per read).
//
// The one caveat is shared with the transactional readOrec/postRead
// pair: a full acquire→write→rollback cycle completing entirely inside
// the sample window restores the pre-acquire word and is invisible to
// revalidation (see the package comment's abort-ABA note). The fast
// path is therefore exactly as exposed as a read-only transaction, no
// more. On any failed sample or revalidation the caller falls back to a
// full transaction, which remains the source of truth for
// linearizability; the fast path never acquires an orec and never
// writes shared memory, so a fallback costs one wasted walk and nothing
// else.
//
// OrecSample is a plain value (no atomics, no locks): it may be copied
// freely and kept on the stack, keeping the hit path allocation-free.

// OrecSample is the observed word of one orec, to be revalidated after
// the dependent field reads with Valid.
type OrecSample struct {
	o *Orec
	w orecWord
}

// Sample records o's current word for an optimistic read. It fails —
// the caller must fall back to a transaction — when the orec is locked
// by an in-flight writer.
func (o *Orec) Sample() (OrecSample, bool) {
	w := o.load()
	if w.locked() {
		return OrecSample{}, false
	}
	return OrecSample{o: o, w: w}, true
}

// Valid reports whether the orec's word is unchanged since Sample: any
// commit in between released the orec at a strictly newer version, and
// any in-flight acquire set the lock bit, so word equality means every
// field read between Sample and Valid belongs to the single committed
// state that was current at the sample instant.
func (s OrecSample) Valid() bool {
	return s.o != nil && s.o.load() == s.w
}

// fastStripeBits sets the number of striped fast-read counter cells
// per runtime, fastStripeCount.
const (
	fastStripeBits  = 6
	fastStripeCount = 1 << fastStripeBits
)

// FastReadCounters is one cacheline-padded cell of fast-path counters.
// A fast read takes its cell from Runtime.FastReadStripe and bumps it
// with its outcome; Runtime.Stats sums the cells. Striping (rather than
// per-descriptor counters) keeps the hit path free of the descriptor
// pool entirely.
type FastReadCounters struct {
	hits      atomic.Uint64
	fallbacks atomic.Uint64
	_         [48]byte // pad to a cache line
}

// Hit counts a point read answered on the fast path (no transaction, no
// orec acquired).
func (c *FastReadCounters) Hit() { c.hits.Add(1) }

// Fallback counts a fast-path attempt that observed a locked orec or a
// failed revalidation and fell back to a full transaction.
func (c *FastReadCounters) Fallback() { c.fallbacks.Add(1) }

// FastReadStripe returns the counter cell for a fast read on the
// calling goroutine, picked by a Fibonacci hash of the goroutine's stack
// address. The pick keeps no state, a goroutine keeps bumping the same
// cell, and two goroutines share one only by chance. A pick by key would
// put every core reading a hot key on one cache line, which the reads
// otherwise only share.
func (rt *Runtime) FastReadStripe() *FastReadCounters {
	var here byte
	// Goroutine stacks are at least 2 KiB apart; drop the bits below.
	s := uint64(uintptr(unsafe.Pointer(&here)) >> 11)
	return &rt.fastStripes[s*0x9e3779b97f4a7c15>>(64-fastStripeBits)]
}

// sumFastReads adds every stripe's counters into s.
func (rt *Runtime) sumFastReads(s *Stats) {
	for i := range rt.fastStripes {
		s.FastReadHits += rt.fastStripes[i].hits.Load()
		s.FastReadFallbacks += rt.fastStripes[i].fallbacks.Load()
	}
}
