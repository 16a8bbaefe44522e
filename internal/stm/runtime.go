package stm

import (
	"sync"
	"sync/atomic"
	"time"
)

// Runtime is an STM instance: a commit clock, a descriptor pool and the
// striped counters (Stripes) shared by all transactions running against
// one set of data structures. Multiple Runtimes are fully independent;
// objects must only ever be accessed through transactions of the
// Runtime that owns them.
type Runtime struct {
	clock Clock
	txIDs atomic.Uint64

	// hooks is the schedule/fault instrumentation surface (see Hooks).
	// It is swappable at runtime via SetHooks; each attempt snapshots it
	// once at begin, so a swap takes effect at attempt granularity.
	hooks atomic.Pointer[hooksBox]
	// commitObs, when set, receives each successful Atomic call's
	// begin-to-commit latency (retries and backoff included). Loaded
	// once per call; nil costs one atomic load.
	commitObs atomic.Pointer[commitObsBox]
	// backoffSeed derives every descriptor's backoff PRNG stream, making
	// backoff spin counts reproducible per descriptor for a fixed seed.
	backoffSeed uint64
	// created numbers the descriptors the pool creates, from 1; the
	// number seeds the descriptor's backoff stream.
	created atomic.Uint64

	// pool holds idle descriptors. Nothing else refers to one, so the
	// pool may drop it.
	pool sync.Pool

	// counters holds every transaction and fast-read count (see Stats).
	counters Stripes[Counters]
}

// hooksBox wraps the Hooks interface value so it can live in an
// atomic.Pointer.
type hooksBox struct{ h Hooks }

// CommitObserver receives successful-commit latencies in nanoseconds.
// The obs package's Histogram satisfies it; keeping the interface here
// keeps the STM dependency-free.
type CommitObserver interface {
	ObserveNanos(n int64)
}

// commitObsBox wraps the observer interface value for atomic.Pointer.
type commitObsBox struct{ o CommitObserver }

// SetCommitObserver installs (or, with nil, removes) the runtime's
// commit-latency observer. When set, every successful Atomic/TryOnce
// call reports its wall time from first begin to commit, including
// retries and backoff.
func (rt *Runtime) SetCommitObserver(o CommitObserver) {
	if o == nil {
		rt.commitObs.Store(nil)
		return
	}
	rt.commitObs.Store(&commitObsBox{o: o})
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithBackoffSeed seeds the per-descriptor backoff PRNG streams. The
// default seed is zero; any fixed seed makes each descriptor's backoff
// spin counts a pure function of its number in the runtime's creation
// counter (the first descriptor the pool creates is 1).
func WithBackoffSeed(seed uint64) Option {
	return func(rt *Runtime) { rt.backoffSeed = seed }
}

// New creates an STM runtime.
func New(opts ...Option) *Runtime {
	rt := &Runtime{}
	rt.clock.base = time.Now()
	rt.clock.off.Store(uint64(rt.clock.base.UnixNano()))
	for _, opt := range opts {
		opt(rt)
	}
	rt.pool.New = func() any {
		n := rt.created.Add(1)
		return &Tx{rt: rt, rng: mix64(rt.backoffSeed ^ n*0x9e3779b97f4a7c15)}
	}
	return rt
}

// Clock returns the runtime's commit clock.
func (rt *Runtime) Clock() *Clock { return &rt.clock }

// SetHooks installs (or, with nil, removes) the runtime's schedule and
// fault-injection hooks. The swap is atomic and takes effect at the
// next attempt of each transaction; in-flight attempts finish under the
// hooks they started with.
func (rt *Runtime) SetHooks(h Hooks) {
	if h == nil {
		rt.hooks.Store(nil)
		return
	}
	rt.hooks.Store(&hooksBox{h: h})
}

// loadHooks returns the currently installed hooks, or nil.
func (rt *Runtime) loadHooks() Hooks {
	b := rt.hooks.Load()
	if b == nil {
		return nil
	}
	return b.h
}

// Atomic runs fn as a transaction, retrying until it commits. A non-nil
// error from fn rolls the transaction back and is returned without
// retrying. Panics from fn propagate after the transaction is rolled
// back. Local variables captured by fn are never rolled back
// (atomic(no_local_undo) semantics), so fn must be written to tolerate
// re-execution — or must route all shared mutation through transactional
// fields, which is the normal case.
func (rt *Runtime) Atomic(fn func(tx *Tx) error) error {
	return rt.run(fn, false)
}

// TryOnce runs fn as a transaction that does not retry: a conflict rolls
// the transaction back and returns ErrAborted. This is the paper's
// atomic(try_once) block used by fast-path range queries.
func (rt *Runtime) TryOnce(fn func(tx *Tx) error) error {
	return rt.run(fn, true)
}

func (rt *Runtime) run(fn func(tx *Tx) error, tryOnce bool) error {
	tx := rt.pool.Get().(*Tx)
	defer rt.pool.Put(tx)
	tx.attempts = 0
	tx.cell = rt.counters.Local()
	var t0 time.Time
	obs := rt.commitObs.Load()
	if obs != nil {
		t0 = time.Now()
	}
	for {
		tx.begin()
		if tx.hookPoint(PointBegin) {
			err, aborted := attempt(tx, fn)
			if !aborted {
				if err != nil {
					tx.rollback()
					tx.cell.userErrors.Add(1)
					return err
				}
				if tx.commit() {
					tx.runHooks()
					if obs != nil {
						obs.o.ObserveNanos(int64(time.Since(t0)))
					}
					return nil
				}
				// Commit-time validation (or an injected abort) failed;
				// commit already rolled back.
			} else {
				tx.rollback()
			}
		} else {
			// Injected abort at begin.
			tx.abortReason = reasonInjected
			tx.rollback()
		}
		if tryOnce {
			return ErrAborted
		}
		tx.backoff()
	}
}

// attempt executes fn, converting the abort sentinel panic into a flag
// while letting genuine panics escape (after the caller rolls back).
func attempt(tx *Tx, fn func(tx *Tx) error) (err error, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(txAbort); ok {
				aborted = true
				return
			}
			tx.rollback()
			panic(r)
		}
	}()
	return fn(tx), false
}

// Stats sums the runtime's counter cells. It is safe to call
// concurrently with running transactions and allocates nothing; the
// counts are a consistent-enough snapshot for reporting.
func (rt *Runtime) Stats() Stats {
	var s Stats
	cells := rt.counters.Cells()
	for i := range cells {
		c := &cells[i]
		s.Commits += c.commits.Load()
		s.ReadOnlyCommits += c.readOnlyCommits.Load()
		v, a, inj := c.aborts[reasonValidate].Load(), c.aborts[reasonAcquire].Load(), c.aborts[reasonInjected].Load()
		s.AbortsValidate += v
		s.AbortsAcquire += a
		s.AbortsInjected += inj
		s.Aborts += c.aborts[reasonNone].Load() + v + a + inj
		s.UserErrors += c.userErrors.Load()
		s.BackoffNanos += c.backoffNanos.Load()
		s.FastReadHits += c.fastHits.Load()
		s.FastReadFallbacks += c.fastFallbacks.Load()
	}
	return s
}

// Stats is a snapshot of runtime-wide transaction counters.
type Stats struct {
	// Commits counts successfully committed transactions.
	Commits uint64
	// ReadOnlyCommits counts the subset of Commits that never wrote.
	ReadOnlyCommits uint64
	// Aborts counts rolled-back attempts (conflicts and failed
	// commit-time validations, including TryOnce failures).
	Aborts uint64
	// AbortsValidate/AbortsAcquire/AbortsInjected split Aborts by
	// reason: version-admissibility and read-set validation failures;
	// lock conflicts (an orec held by another transaction, or a lost
	// acquisition race); and aborts injected by instrumentation hooks.
	// User-error rollbacks carry no reason, so the three sum to at
	// most Aborts.
	AbortsValidate uint64
	AbortsAcquire  uint64
	AbortsInjected uint64
	// BackoffNanos is wall time spent in inter-attempt backoff — the
	// contention-induced delay behind the abort counts.
	BackoffNanos uint64
	// UserErrors counts transactions rolled back because the closure
	// returned a non-nil error.
	UserErrors uint64
	// FastReadHits counts point reads answered by the optimistic
	// non-transactional fast path (see fastread.go): no transaction
	// started, no orec acquired.
	FastReadHits uint64
	// FastReadFallbacks counts fast-path attempts that observed a locked
	// orec, a too-new version, or a failed revalidation and fell back to
	// a full transaction (the fallback's commit is counted normally).
	FastReadFallbacks uint64
}

// Sub returns the element-wise difference s - prev, for windowed
// measurements.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Commits:           s.Commits - prev.Commits,
		ReadOnlyCommits:   s.ReadOnlyCommits - prev.ReadOnlyCommits,
		Aborts:            s.Aborts - prev.Aborts,
		AbortsValidate:    s.AbortsValidate - prev.AbortsValidate,
		AbortsAcquire:     s.AbortsAcquire - prev.AbortsAcquire,
		AbortsInjected:    s.AbortsInjected - prev.AbortsInjected,
		BackoffNanos:      s.BackoffNanos - prev.BackoffNanos,
		UserErrors:        s.UserErrors - prev.UserErrors,
		FastReadHits:      s.FastReadHits - prev.FastReadHits,
		FastReadFallbacks: s.FastReadFallbacks - prev.FastReadFallbacks,
	}
}
