// Package stm implements a software transactional memory (STM) runtime in
// the style assumed by the skip hash paper: ownership records (orecs)
// co-located with the objects they protect, encounter-time (eager) lock
// acquisition, undo logging, and a global commit clock.
//
// The design follows the principles the paper attributes to modern STM
// systems (exoTM, TinySTM, TL2 and friends):
//
//   - Orec-based conflict detection. Every protected object embeds an
//     Orec, a single 64-bit word that is either a commit version (even)
//     or a lock owned by a transaction (odd).
//   - Eager acquire with undo logging. Writers take ownership of an orec
//     on first write and mutate fields in place, recording undo actions.
//     Aborts replay the undo log and release ownership at the old version.
//   - No timestamp extension. A read or acquisition of an orec whose
//     version is newer than the transaction's start time aborts the
//     transaction (the paper selects exoTM's eager/undo algorithm
//     "without timestamp extension" for its lowest latency).
//   - Cheap read-only transactions. Each read is validated individually
//     against the start time, so a transaction that never writes commits
//     with no further work and linearizes at its start.
//   - One global clock per runtime: monotonic wall-clock nanoseconds,
//     standing in for the paper's rdtscp hardware clock, under a floor
//     that only rises (see Clock).
//
// # Using the package
//
// Shared mutable state lives in transactional fields (Ptr, U64, Val)
// guarded by an Orec that the enclosing object embeds:
//
//	type account struct {
//	    orec    stm.Orec
//	    balance stm.U64
//	}
//
//	rt := stm.New()
//	err := rt.Atomic(func(tx *stm.Tx) error {
//	    b := from.balance.Load(tx, &from.orec)
//	    from.balance.Store(tx, &from.orec, b-10)
//	    t := to.balance.Load(tx, &to.orec)
//	    to.balance.Store(tx, &to.orec, t+10)
//	    return nil
//	})
//
// Atomic retries the closure until it commits. TryOnce attempts a single
// execution and reports ErrAborted on conflict, which implements the
// paper's atomic(try_once) block used by fast-path range queries. Local
// variables captured by the closure are never rolled back, which is
// exactly the paper's atomic(no_local_undo) semantics.
//
// Transactions abort by panicking with an internal sentinel that the
// runtime recovers; user code never observes it. A non-nil error returned
// from the closure rolls the transaction back and is returned to the
// caller without retrying.
//
// # Commit and publish hooks
//
// Side effects that must follow a transaction's fate are registered on
// its descriptor with Tx.OnPublish and Tx.OnCommit. A registration is a
// {target, payload} pair, not a closure: the target is a long-lived
// object implementing PublishHook or CommitHook (the skip hash's handle,
// a durability store), the payload an unsafe.Pointer the target knows how
// to read (the removed node, the transaction's op buffer). The pair is
// appended to the descriptor's list as a plain struct — the same
// treatment the undo log gets — so registering a hook allocates nothing.
//
// Publish hooks run inside a writing commit, after validation and with
// the commit stamp, while every acquired orec is still held: hooks of
// conflicting transactions therefore run in commit order, which is what
// the write-ahead log orders itself by. A publish hook is the commit's
// last check: if it returns an error the transaction rolls back, as a
// failed validation does, and Atomic returns the error without
// retrying, so a write the log refuses never becomes visible. Commit
// hooks run after the orecs are released; an error one returns is
// returned by Atomic after the commit. Both are discarded when the
// attempt aborts or the body returns an error, and neither carries
// across attempts — a retried body registers again. Read-only commits
// draw no stamp and run no publish hooks. Once the hooks have run (or
// the attempt has rolled back) the descriptor zeroes the entries, so a
// descriptor idling in the pool keeps no target or payload reachable.
//
// # Optimistic non-transactional reads
//
// A point read guarded by a single orec can bypass transactions and the
// commit clock entirely: sample the orec's word (Orec.Sample, which
// rejects a locked word), read fields through their atomic backing, then
// revalidate that the word is unchanged (OrecSample.Valid). Start
// timestamps exist to make reads of multiple orecs mutually consistent;
// with exactly one orec, word equality across the read already proves
// the walk observed the single committed state current at the sample
// instant — any commit in between releases the orec at a strictly newer
// version — so the read linearizes at its sample. The fallback invariant
// is that the fast path must be exactly as strong as — and no stronger
// than — a read-only transaction: Sample rejects in-flight writers like
// the transactional readOrec, Valid applies the same word-unchanged
// check as postRead, and any failure routes the caller to a full
// transaction, which stays the source of truth for linearizability. In
// particular, both paths share the same narrow acquire/write/rollback
// window (an abort restores the pre-acquire orec word, so a writer's
// entire lifetime fitting between Sample and Valid is indistinguishable
// from no writer at all); the fast path deliberately does not try to
// close a hole the transactional read protocol itself has, it only
// mirrors it. Fast reads never acquire an orec, never write shared
// memory, and are counted per runtime (Stats.FastReadHits /
// Stats.FastReadFallbacks).
//
// # Counters
//
// Every count the runtime keeps (commits, aborts by reason, backoff,
// fast-read outcomes) lives in one Stripes of cache-line-padded cells: a
// goroutine bumps the cell its stack address picks, and Stats sums the
// cells without allocating. Layers above count their own events the
// same way, in a Stripes of their own cell type. Descriptors carry no
// counts, so the pool may drop an idle one and nothing keeps it alive.
package stm
