package stm

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// Tx is a transaction descriptor. A Tx is only ever used by one goroutine
// at a time; descriptors are pooled and reused across transactions so the
// read set, undo log, and acquire list retain their capacity.
//
// Tx is handed to the closure passed to Runtime.Atomic or Runtime.TryOnce
// and must not be retained after the closure returns.
type Tx struct {
	rt     *Runtime
	id     uint64 // unique per attempt; encoded into lock words
	idEnd  uint64 // exclusive end of the descriptor's private ID block
	start  uint64 // start timestamp from the clock
	strict bool   // reject version == start (see Clock.Strict)
	active bool

	reads    []readEntry
	undo     []undoEntry
	acquired []acqEntry
	hooks    []commitEntry
	publish  []publishEntry

	// end is the commit timestamp of the most recent successful writing
	// commit (zero for read-only commits, which never draw one).
	end uint64

	// local is the per-attempt scratch slot for layers above the STM
	// (see SetLocal). It is cleared at the start of every attempt, so
	// state accumulated by an aborted attempt can never leak into its
	// retry.
	local any

	// acqIndex mirrors acquired as orec -> pre-acquire word once the
	// acquire list outgrows acquireIndexThreshold, so commit-time
	// read-set validation stays O(reads) instead of O(reads*acquired)
	// for transactions with large write sets. nil until first needed;
	// retained (emptied) across the descriptor's reuses.
	acqIndex map[*Orec]orecWord

	attempts int
	rng      uint64

	// instr is the runtime's instrumentation hooks surface (see Hooks),
	// snapshotted once per attempt at begin (nil when uninstrumented).
	instr Hooks

	// abortReason classifies the in-flight abort for rollback's
	// by-reason counters; reset after each rollback.
	abortReason uint8

	stats txStats
}

type readEntry struct {
	orec *Orec
	seen orecWord
}

type acqEntry struct {
	orec *Orec
	prev orecWord // pre-acquire version word, restored on abort
}

// undoEntry restores one field's pre-transaction image on abort. It is
// a tagged union over the field kinds (exactly one slot pointer is
// non-nil) so that logging a store appends a plain struct instead of
// allocating a closure — the write path's only per-store heap
// allocation before this layout.
type undoEntry struct {
	ptr  *unsafe.Pointer // pointer-backed fields (Ptr, Val)
	u64  *atomic.Uint64  // word-backed fields (U64)
	oldP unsafe.Pointer
	oldU uint64
}

// CommitHook is the target of an OnCommit registration: a long-lived
// object (a map handle, a durability store) whose Committed method does
// the post-commit work for the pointer-shaped payload registered with it.
type CommitHook interface {
	Committed(arg unsafe.Pointer)
}

// PublishHook is the target of an OnPublish registration; Published
// receives the commit stamp and the payload registered with it.
type PublishHook interface {
	Published(stamp uint64, arg unsafe.Pointer)
}

// commitEntry and publishEntry are one hook registration each: a target
// and its payload, appended as a plain struct like undoEntry, so
// registering a hook allocates nothing where a captured closure cost one
// heap object per registration.
type commitEntry struct {
	target CommitHook
	arg    unsafe.Pointer
}

type publishEntry struct {
	target PublishHook
	arg    unsafe.Pointer
}

// txStats counts events for one descriptor. Counters are atomics so the
// aggregation in Runtime.Stats can read them while the descriptor is in
// use; each counter is only ever written by the descriptor's current
// owner, so the adds are uncontended.
type txStats struct {
	commits         atomic.Uint64
	readOnlyCommits atomic.Uint64
	aborts          atomic.Uint64
	userErrors      atomic.Uint64
	// Aborts by reason (see the abortReason constants); user-error
	// rollbacks carry no reason, so the three never exceed aborts.
	abortsValidate atomic.Uint64
	abortsAcquire  atomic.Uint64
	abortsInjected atomic.Uint64
	// backoffNanos accumulates wall time spent in backoff between
	// attempts.
	backoffNanos atomic.Uint64
}

// Abort reasons, recorded at the conflict site and banked by rollback:
// acquire is any failure encountering a lock (an orec held by another
// transaction, or a lost acquisition race); validate is any version
// admissibility or read-set validation failure; injected is an abort
// requested by instrumentation hooks.
const (
	reasonNone = iota
	reasonValidate
	reasonAcquire
	reasonInjected
)

// idBlock is how many transaction IDs a descriptor reserves at once, so
// the global counter is touched ~never instead of per attempt.
const idBlock = 1 << 20

// acquireIndexThreshold is the acquire-list length beyond which a
// descriptor maintains acqIndex. Small transactions — the skip hash's
// common case — keep the branch-free linear scan over a few entries;
// large write sets (batch Atomic bodies, long unstitch chains) switch
// to the map before validation turns quadratic.
const acquireIndexThreshold = 32

// begin (re)initializes the descriptor for a fresh attempt.
func (tx *Tx) begin() {
	tx.id++
	if tx.id >= tx.idEnd {
		tx.idEnd = tx.rt.txIDs.Add(idBlock)
		tx.id = tx.idEnd - idBlock + 1
	}
	tx.start = tx.rt.clock.Read()
	tx.strict = tx.rt.strict
	tx.reads = tx.reads[:0]
	tx.undo = tx.undo[:0]
	tx.acquired = tx.acquired[:0]
	tx.hooks = tx.hooks[:0]
	tx.publish = tx.publish[:0]
	tx.end = 0
	tx.local = nil
	if len(tx.acqIndex) > 0 {
		clear(tx.acqIndex)
	}
	tx.instr = tx.rt.loadHooks()
	tx.active = true
}

// hookPoint fires the instrumentation hook at p, reporting whether the
// attempt may proceed (false requests an injected abort).
func (tx *Tx) hookPoint(p Point) bool {
	if tx.instr == nil {
		return true
	}
	return tx.instr.OnPoint(p, tx.id, tx.attempts)
}

// Start returns the transaction's start timestamp. Exposed for tests and
// for data structures that want to reason about snapshot ages.
func (tx *Tx) Start() uint64 { return tx.start }

// conflict aborts the current attempt by unwinding to the retry loop,
// recording the abort's reason for the by-reason counters.
func (tx *Tx) conflict(reason uint8) {
	tx.abortReason = reason
	panic(txAbort{})
}

// versionOK reports whether a version observed on an orec is admissible
// for this transaction's snapshot.
func (tx *Tx) versionOK(ver uint64) bool {
	if tx.strict {
		return ver < tx.start
	}
	return ver <= tx.start
}

// readOrec performs the optimistic pre-read step: it loads the orec and
// aborts unless the orec is unlocked with an admissible version or is
// owned by this transaction. It reports whether the orec is owned by this
// transaction (in which case no post-validation is required).
func (tx *Tx) readOrec(o *Orec) (w orecWord, mine bool) {
	w = o.load()
	if w.locked() {
		if w.owner() == tx.id {
			return w, true
		}
		tx.conflict(reasonAcquire)
	}
	if !tx.versionOK(w.version()) {
		tx.rt.clock.OnAbort()
		tx.conflict(reasonValidate)
	}
	return w, false
}

// postRead validates that the orec did not change while the field was
// being read and records it in the read set.
func (tx *Tx) postRead(o *Orec, w orecWord) {
	if o.load() != w {
		tx.conflict(reasonValidate)
	}
	// Consecutive reads of fields guarded by the same orec are common
	// (several fields of one node); collapse them.
	if n := len(tx.reads); n > 0 && tx.reads[n-1].orec == o {
		return
	}
	tx.reads = append(tx.reads, readEntry{orec: o, seen: w})
}

// acquire takes ownership of the orec at encounter time, aborting on any
// conflict. It is idempotent for orecs this transaction already owns.
func (tx *Tx) acquire(o *Orec) {
	w := o.load()
	if w.locked() {
		if w.owner() == tx.id {
			return
		}
		tx.conflict(reasonAcquire)
	}
	if !tx.versionOK(w.version()) {
		tx.rt.clock.OnAbort()
		tx.conflict(reasonValidate)
	}
	if !o.cas(w, lockWord(tx.id)) {
		tx.conflict(reasonAcquire)
	}
	tx.acquired = append(tx.acquired, acqEntry{orec: o, prev: w})
	if len(tx.acqIndex) > 0 {
		tx.acqIndex[o] = w
	} else if len(tx.acquired) > acquireIndexThreshold {
		if tx.acqIndex == nil {
			tx.acqIndex = make(map[*Orec]orecWord, 2*acquireIndexThreshold)
		}
		for i := range tx.acquired {
			tx.acqIndex[tx.acquired[i].orec] = tx.acquired[i].prev
		}
	}
}

// Acquire takes write ownership of an orec without writing any field.
// Data structures use it to upgrade a node they are about to logically
// modify from optimistic-read to owned, converting commit-time validation
// aborts into eager conflicts. The paper's observation that "remove()
// operations do not read any skip list node that they do not also write"
// relies on exactly this pattern.
func (tx *Tx) Acquire(o *Orec) { tx.acquire(o) }

// logUndoPtr records a pointer field's pre-transaction image. Undo
// entries are applied in reverse order on abort.
func (tx *Tx) logUndoPtr(slot *unsafe.Pointer, old unsafe.Pointer) {
	tx.undo = append(tx.undo, undoEntry{ptr: slot, oldP: old})
}

// logUndoU64 records a uint64 field's pre-transaction image.
func (tx *Tx) logUndoU64(slot *atomic.Uint64, old uint64) {
	tx.undo = append(tx.undo, undoEntry{u64: slot, oldU: old})
}

// OnCommit registers h.Committed(arg) to run after this transaction
// commits, once every acquired orec has been released. Hooks are
// discarded if the transaction aborts or returns an error, making them
// the right place for side effects that must happen at most once, such as
// the skip hash's count of nodes a removal unstitched. arg is an opaque
// pointer payload handed back to h (nil when h needs none); the
// descriptor drops its reference as soon as the hook has run or the
// attempt has rolled back.
func (tx *Tx) OnCommit(h CommitHook, arg unsafe.Pointer) {
	tx.hooks = append(tx.hooks, commitEntry{target: h, arg: arg})
}

// OnPublish registers h.Published(stamp, arg) to run inside a successful
// commit of a writing transaction: after read-set validation has
// succeeded and the commit timestamp has been drawn, but before any
// acquired orec is released. This is the serialization observation point
// durability needs — while the hook runs, every conflicting transaction
// is still excluded, so the order in which OnPublish hooks of conflicting
// transactions execute is exactly their commit order, and the hook
// receives the commit stamp that orders them. The hook must be fast (it
// extends every conflicting writer's wait) and must not panic or start
// new transactions on this runtime.
//
// Hooks are discarded on abort or user error, and read-only commits
// never run them (no stamp is drawn). Registrations do not carry across
// attempts: a retried closure re-registers.
func (tx *Tx) OnPublish(h PublishHook, arg unsafe.Pointer) {
	tx.publish = append(tx.publish, publishEntry{target: h, arg: arg})
}

// CommitStamp returns the commit timestamp of the transaction's
// successful writing commit. It is meaningful inside OnCommit hooks (and
// after OnPublish has fired); read-only commits report zero.
func (tx *Tx) CommitStamp() uint64 { return tx.end }

// SetLocal attaches per-attempt scratch state to the transaction for
// layers above the STM. The slot is cleared at the start of every
// attempt, so an aborted attempt's state never leaks into its retry;
// callers detect a fresh attempt by Local returning nil (or a value they
// do not own) and rebuild.
func (tx *Tx) SetLocal(v any) { tx.local = v }

// Local returns the per-attempt scratch slot; see SetLocal.
func (tx *Tx) Local() any { return tx.local }

// preAcquireWord returns the version word an orec held before this
// transaction acquired it. ok is false if the orec is not in the acquire
// list. Above acquireIndexThreshold the lookup goes through acqIndex,
// keeping commit-time validation of mixed read/write sets linear.
func (tx *Tx) preAcquireWord(o *Orec) (orecWord, bool) {
	if len(tx.acqIndex) > 0 {
		w, ok := tx.acqIndex[o]
		return w, ok
	}
	for i := range tx.acquired {
		if tx.acquired[i].orec == o {
			return tx.acquired[i].prev, true
		}
	}
	return 0, false
}

// commit attempts to commit. It reports success; on failure the
// transaction has already been rolled back.
func (tx *Tx) commit() bool {
	if len(tx.acquired) == 0 {
		// Read-only fast path: every read was individually validated
		// against the start time, so the snapshot is consistent as of
		// Start() and nothing remains to be done. This is the
		// "negligible overhead" read-only optimization from §2.2.
		if !tx.hookPoint(PointCommit) {
			tx.abortReason = reasonInjected
			tx.rollback()
			return false
		}
		tx.active = false
		tx.stats.commits.Add(1)
		tx.stats.readOnlyCommits.Add(1)
		return true
	}
	if !tx.hookPoint(PointValidate) {
		tx.abortReason = reasonInjected
		tx.rollback()
		return false
	}
	end := tx.rt.clock.Next()
	// Validate the read set: every orec we read must either still hold
	// the word we saw, or be locked by us with its pre-acquire word
	// matching what we saw.
	for i := range tx.reads {
		r := &tx.reads[i]
		w := r.orec.load()
		if w == r.seen {
			continue
		}
		if w.locked() && w.owner() == tx.id {
			if prev, ok := tx.preAcquireWord(r.orec); ok && prev == r.seen {
				continue
			}
		}
		tx.abortReason = reasonValidate
		tx.rollback()
		return false
	}
	if !tx.hookPoint(PointCommit) {
		tx.abortReason = reasonInjected
		tx.rollback()
		return false
	}
	tx.end = end
	// Commit is now decided: run the publish observers while the
	// acquired orecs are still held, so observers of conflicting
	// transactions fire in commit order (see OnPublish).
	for i := range tx.publish {
		tx.publish[i].target.Published(end, tx.publish[i].arg)
	}
	// Publish: release every acquired orec at the commit timestamp.
	release := versionWord(end)
	for i := range tx.acquired {
		tx.acquired[i].orec.store(release)
	}
	tx.active = false
	tx.stats.commits.Add(1)
	return true
}

// rollback undoes all in-place writes and releases ownership at the
// pre-acquire versions.
func (tx *Tx) rollback() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		e := &tx.undo[i]
		if e.ptr != nil {
			atomic.StorePointer(e.ptr, e.oldP)
		} else {
			e.u64.Store(e.oldU)
		}
	}
	for i := range tx.acquired {
		tx.acquired[i].orec.store(tx.acquired[i].prev)
	}
	tx.undo = tx.undo[:0]
	tx.acquired = tx.acquired[:0]
	tx.dropHooks()
	tx.active = false
	tx.stats.aborts.Add(1)
	switch tx.abortReason {
	case reasonValidate:
		tx.stats.abortsValidate.Add(1)
	case reasonAcquire:
		tx.stats.abortsAcquire.Add(1)
	case reasonInjected:
		tx.stats.abortsInjected.Add(1)
	}
	tx.abortReason = reasonNone
}

// runHooks fires the on-commit hooks registered during a successful
// transaction.
func (tx *Tx) runHooks() {
	for i := range tx.hooks {
		tx.hooks[i].target.Committed(tx.hooks[i].arg)
	}
	tx.dropHooks()
}

// dropHooks empties both registration lists and zeroes the entries they
// held: the descriptor goes back to the pool (and stays on the runtime's
// registry) after the transaction, and a merely truncated list would keep
// the last targets and payloads — removed nodes, durability buffers —
// reachable until some later transaction happened to overwrite the slots.
func (tx *Tx) dropHooks() {
	clear(tx.hooks)
	tx.hooks = tx.hooks[:0]
	clear(tx.publish)
	tx.publish = tx.publish[:0]
}

// backoff applies randomized bounded exponential backoff between
// attempts. Encounter-time locking resolves deadlock by aborting rather
// than waiting, so backoff is what prevents livelock between symmetric
// conflicting transactions.
func (tx *Tx) backoff() {
	t0 := time.Now()
	tx.attempts++
	shift := tx.attempts
	if shift > 12 {
		shift = 12
	}
	spins := tx.nextRand() % (uint64(1) << shift)
	for i := uint64(0); i < spins; i++ {
		// Burn a few cycles without touching shared memory.
		tx.rng += i
	}
	if tx.attempts%8 == 0 {
		runtime.Gosched()
	}
	// Bank the wall time so Stats can report contention-induced delay;
	// this path only runs after an abort, never on a clean commit.
	tx.stats.backoffNanos.Add(uint64(time.Since(t0)))
}

// nextRand is a splitmix64 step seeded per descriptor.
func (tx *Tx) nextRand() uint64 {
	tx.rng += 0x9e3779b97f4a7c15
	z := tx.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
