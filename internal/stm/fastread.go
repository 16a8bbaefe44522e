package stm

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
