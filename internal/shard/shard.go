// Package shard partitions the skip hash across S independent shards,
// turning "one STM instance" into "as many as the hardware has cores".
// Keys are hash-partitioned: each shard is a complete core.Map (hash
// index + doubly linked skip list + range query coordinator), so point
// operations touch exactly one shard and never share a cacheline with
// traffic on any other. Ordered operations are rebuilt at this layer by
// k-way merging per-shard segments, which stay sorted and disjoint
// because the shards partition the key space.
//
// The partition count is a starting point, not a constraint: Resize
// live-migrates keys between shards under traffic (see resize.go), so
// Config.Shards only chooses the initial layout.
//
// # Consistency model
//
// Every shard runs on one shared STM runtime whose default commit clock
// is the stateless monotonic "hardware" clock: drawing a timestamp
// writes no shared memory, so sharing the runtime adds no cross-shard
// contention to point operations, while keeping all shards in one
// timestamp and transaction-ID domain. That domain makes the multi-shard
// operations as linearizable as one shard's: Range's fast path is one
// transaction walking every shard's segment and its slow path registers
// with every shard's RQC in one transaction, so the merged segments are
// a snapshot at a single commit instant; Ceil/Floor/Succ/Pred probe all
// shards inside one read-only transaction; and an Atomic batch may span
// shards freely, committing or rolling back as a whole.
package shard

import (
	"fmt"
	"iter"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stm"
)

// Pair is a key/value pair produced by range queries.
type Pair[K comparable, V any] = core.Pair[K, V]

// maxShards bounds the partition count; beyond this the per-shard merge
// and probe fan-out costs dominate any contention win.
const maxShards = 256

// Sharded is a concurrent ordered map hash-partitioned across S
// independent skip hash shards. All methods are safe for concurrent
// use; hot paths should go through per-goroutine Handles. The shard
// count set at construction is only initial — Resize migrates to a new
// count under live traffic.
type Sharded[K comparable, V any] struct {
	less func(a, b K) bool
	hash func(K) uint64
	rt   *stm.Runtime // the one runtime every shard runs on
	// baseCfg is the construction config; Resize re-derives per-shard
	// configs from it at the new count.
	baseCfg core.Config
	// tab is the current route table (shard list + routing state).
	// Operations pin it via enter/exit; Resize swaps it.
	tab atomic.Pointer[route[K, V]]
	// stripeCtr deals pin stripes to handles round-robin.
	stripeCtr atomic.Uint32

	handlePool sync.Pool
	mu         sync.Mutex
	handles    []*Handle[K, V]
	// retired accumulates shard-level range counters of handles that
	// left the registry (closed handles, released pooled handles).
	retired core.HandleStats
	// retiredRange/retiredMaint bank the counters of shards closed by a
	// resize, so aggregate stats never go backwards.
	retiredRange core.RangeStats
	retiredMaint core.MaintenanceStats
	closed       atomic.Bool
	// closeDone lets concurrent Close calls wait for the one closing
	// goroutine (durability makes "Close returned" mean "flushed").
	closeDone chan struct{}
	// persister is the durability engine: one WAL spanning every shard,
	// so a cross-shard batch is a single record. Nil on in-memory maps.
	persister core.Persister
	// logger is the WAL logger; Resize attaches it to destination shards
	// so migrated keys keep logging.
	logger core.OpLogger[K, V]

	// resizeMu serializes Resize calls with each other and with Close.
	resizeMu sync.Mutex
	// maintObs remembers the installed maintenance observer so shards
	// created by Resize inherit it (s.mu guards it).
	maintObs func(nodes int, d time.Duration)

	rsResizes      atomic.Uint64
	rsKeysCopied   atomic.Uint64
	rsDeltaApplied atomic.Uint64
	rsCutovers     atomic.Uint64
	resizeObs      atomic.Pointer[func(group, tail int, d time.Duration)]
}

// normalizeShards clamps a requested shard count to a power of two in
// [1, maxShards]; zero derives the smallest power of two covering
// GOMAXPROCS.
func normalizeShards(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxShards {
		n = maxShards
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	return n
}

// perShardConfig derives each shard's core configuration: the bucket
// budget (cfg.Buckets, or the core default) is split evenly so total
// memory does not grow with the shard count (one shard gets core's own
// bucket count), and the shard-frontend fields are cleared so each
// core.Map is an ordinary single map.
func perShardConfig(cfg core.Config, shards int) core.Config {
	total := cfg.Buckets
	if total == 0 {
		total = 131071
	}
	per := total / shards
	if per < 127 {
		per = 127
	}
	cfg.Buckets = per | 1 // odd, so weak hashes still spread over chains
	cfg.Shards = 0
	cfg.Durability = nil // the frontend owns durability, not the shards
	return cfg
}

// New creates a sharded skip hash ordered by less and hashed by hash.
// cfg.Shards selects the initial partition count (0 derives a power of
// two from GOMAXPROCS; Resize changes it later) and cfg.Buckets the
// total hash-table budget across shards; the remaining fields configure
// each shard as in core.New. hash must mix its input well: the top bits
// pick the shard (after one extra multiplicative mix) and the low bits
// the bucket chain.
func New[K comparable, V any](less func(a, b K) bool, hash func(K) uint64, cfg core.Config) *Sharded[K, V] {
	n := normalizeShards(cfg.Shards)
	s := &Sharded[K, V]{
		less:      less,
		hash:      hash,
		rt:        stm.New(stm.WithClock(cfg.Clock)),
		baseCfg:   cfg,
		closeDone: make(chan struct{}),
	}
	per := perShardConfig(cfg, n)
	shards := make([]*core.Map[K, V], n)
	for i := range shards {
		shards[i] = core.NewIn[K, V](s.rt, less, hash, per)
	}
	s.tab.Store(newSteadyRoute(shards))
	s.handlePool.New = func() any { return s.NewTransientHandle() }
	return s
}

// Close shuts every shard down: per-shard maintainers stop, registered
// handles' removal buffers flush, and the orphan queues drain, so a
// quiescent map holds no stitched logically-deleted nodes afterwards;
// on durable maps the write-ahead log is then flushed and fsynced.
// Close is idempotent and safe concurrent with operations, Quiesce,
// Resize (it waits for an in-flight resize to finish), and other Close
// calls — every call returns only after teardown (including the
// durability flush) has completed. Operations issued after Close fall
// back to inline reclamation and are no longer logged.
func (s *Sharded[K, V]) Close() {
	if s.closed.Swap(true) {
		<-s.closeDone
		return
	}
	defer close(s.closeDone)
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	for _, m := range s.tab.Load().maps {
		m.Close()
	}
	if s.persister != nil {
		s.persister.Close()
	}
}

// AttachPersistence wires durability: l observes every shard's
// committed logical operations (all shards share one commit clock, so
// one WAL orders them globally, and a cross-shard batch is a single
// atomic record), and p owns snapshots, syncs and shutdown.
func (s *Sharded[K, V]) AttachPersistence(l core.OpLogger[K, V], p core.Persister) {
	for _, m := range s.tab.Load().maps {
		m.AttachPersistence(l)
	}
	s.logger = l
	s.persister = p
}

// LoadSorted bulk-builds the map from strictly ascending pairs; see
// core.Map.LoadSorted, whose contract (an empty map no other goroutine
// has seen yet) it shares. A one-shard map takes pairs straight through.
// Otherwise each shard takes one pass over pairs and keeps the keys the
// steady route sends it, still ascending: the pairs are never copied out
// per shard, and the price is one hash per key per shard.
func (s *Sharded[K, V]) LoadSorted(pairs iter.Seq2[K, V]) {
	t := s.tab.Load()
	if len(t.maps) == 1 {
		t.maps[0].LoadSorted(pairs)
		return
	}
	for i, m := range t.maps {
		m.LoadSorted(func(yield func(K, V) bool) {
			for k, v := range pairs {
				if t.idxFor(mix(s.hash(k))) == i && !yield(k, v) {
					return
				}
			}
		})
	}
}

// SnapshotChunks iterates the authoritative shards' key spaces in
// chunked consistent reads for a durable snapshot; see
// core.Map.SnapshotChunks. Chunks from different shards carry their own
// stamps — recovery's per-key chunk watermarks make the union
// consistent without stopping writers. During a resize the walk covers
// the shard set that was authoritative when it began; writes that move
// later are in the WAL.
func (s *Sharded[K, V]) SnapshotChunks(chunkSize int, fn func(stamp uint64, pairs []Pair[K, V]) error) error {
	for _, m := range s.authMaps() {
		if err := m.SnapshotChunks(chunkSize, fn); err != nil {
			return err
		}
	}
	return nil
}

// authMaps snapshots the authoritative shard set — the maps that
// jointly cover the key space exactly once at this instant.
func (s *Sharded[K, V]) authMaps() []*core.Map[K, V] {
	t := s.tab.Load()
	m := t.mig
	if m == nil {
		return t.maps
	}
	for g := range m.gates {
		m.gates[g].RLock()
	}
	idx := m.authIndices(nil)
	out := make([]*core.Map[K, V], len(idx))
	for i, j := range idx {
		out[i] = t.maps[j]
	}
	for g := range m.gates {
		m.gates[g].RUnlock()
	}
	return out
}

// Snapshot writes a durable snapshot now (and truncates the WAL
// segments it covers). core.ErrNotDurable without persistence.
func (s *Sharded[K, V]) Snapshot() error {
	return s.durabilityOp(core.Persister.Snapshot)
}

// Sync forces every logged operation to durable storage, regardless of
// the configured fsync policy. core.ErrNotDurable without persistence.
func (s *Sharded[K, V]) Sync() error {
	return s.durabilityOp(core.Persister.Sync)
}

// SimulateCrash abandons the durability engine the way a process crash
// would — buffered records are lost, nothing more is logged — while the
// in-memory map keeps working. Reopen the directory to observe what
// survived. core.ErrNotDurable without persistence.
func (s *Sharded[K, V]) SimulateCrash() error {
	return s.durabilityOp(core.Persister.SimulateCrash)
}

// Persister returns the durability engine, or nil on in-memory maps.
func (s *Sharded[K, V]) Persister() core.Persister { return s.persister }

func (s *Sharded[K, V]) durabilityOp(op func(core.Persister) error) error {
	if s.persister == nil {
		return core.ErrNotDurable
	}
	return op(s.persister)
}

// Closed reports whether Close has been called.
func (s *Sharded[K, V]) Closed() bool { return s.closed.Load() }

// HandleCount returns the number of handles registered across the map:
// the sharded map's own registry plus every shard's (an explicit
// sharded handle contributes 1 + Shards() entries). Pooled convenience
// handles are transient and never counted; the count is the
// leak-detection probe for handle-lifecycle tests.
func (s *Sharded[K, V]) HandleCount() int {
	s.mu.Lock()
	n := len(s.handles)
	s.mu.Unlock()
	for _, m := range s.tab.Load().maps {
		n += m.HandleCount()
	}
	return n
}

// SetMaintenanceObserver installs fn on every shard; see
// core.Map.SetMaintenanceObserver. Observations from different shards'
// drains interleave on one observer. Shards created by a later Resize
// inherit the observer.
func (s *Sharded[K, V]) SetMaintenanceObserver(fn func(nodes int, d time.Duration)) {
	s.mu.Lock()
	s.maintObs = fn
	s.mu.Unlock()
	for _, m := range s.tab.Load().maps {
		m.SetMaintenanceObserver(fn)
	}
}

// SetCommitObserver installs o (or, with nil, removes it) on the
// runtime every shard runs on, including shards a later Resize creates.
func (s *Sharded[K, V]) SetCommitObserver(o stm.CommitObserver) { s.rt.SetCommitObserver(o) }

// MaintenanceStats aggregates the reclamation counters of every shard,
// including shards retired by resizes.
func (s *Sharded[K, V]) MaintenanceStats() core.MaintenanceStats {
	s.mu.Lock()
	agg := s.retiredMaint
	s.mu.Unlock()
	for _, m := range s.tab.Load().maps {
		agg = agg.Add(m.MaintenanceStats())
	}
	return agg
}

// StitchedSlow counts all stitched nodes across shards, including
// logically deleted ones, without transactional protection; with
// SizeSlow it measures the deferred-reclamation backlog.
func (s *Sharded[K, V]) StitchedSlow() int {
	n := 0
	for _, m := range s.authMaps() {
		n += m.StitchedSlow()
	}
	return n
}

// Shards returns the current shard count: the live partition count in
// steady state, or the target count while a resize is migrating toward
// it. This is the operator-facing accessor surfaced through Stats.
func (s *Sharded[K, V]) Shards() int {
	t := s.tab.Load()
	if t.mig != nil {
		return t.mig.newN
	}
	return len(t.maps)
}

// Shard exposes one partition (for stats and tests); valid for
// i < Shards() while no resize is in flight.
func (s *Sharded[K, V]) Shard(i int) *core.Map[K, V] { return s.tab.Load().maps[i] }

// Runtime returns the STM runtime every shard runs on.
func (s *Sharded[K, V]) Runtime() *stm.Runtime { return s.rt }

// STMStats returns the transaction counters of the map's runtime.
func (s *Sharded[K, V]) STMStats() stm.Stats { return s.rt.Stats() }

// Prefetch warms the cache lines a point read of k will touch on its
// home shard; see core.Map.Prefetch. Routing is advisory during a
// resize (the home may flip before the read).
func (s *Sharded[K, V]) Prefetch(k K) {
	t := s.tab.Load()
	t.maps[t.idxFor(mix(s.hash(k)))].Prefetch(k)
}

// RangeStats aggregates range-path counters: the shard-level fast/slow
// counters of this map's registered handles plus the retired
// accumulator (cross-shard ranges), plus each shard's own counters
// (ranges a one-shard route answers directly). The shard-level sum
// runs under s.mu — the mutex bankStats moves counters under — so
// snapshots are exact with respect to banking and successive snapshots
// never decrease.
func (s *Sharded[K, V]) RangeStats() core.RangeStats {
	var agg core.RangeStats
	s.mu.Lock()
	for _, h := range s.handles {
		agg.FastAttempts += h.stats.RangeFastAttempts.Load()
		agg.FastAborts += h.stats.RangeFastAborts.Load()
		agg.FastCommits += h.stats.RangeFastCommits.Load()
		agg.SlowCommits += h.stats.RangeSlowCommits.Load()
	}
	agg.FastAttempts += s.retired.RangeFastAttempts.Load()
	agg.FastAborts += s.retired.RangeFastAborts.Load()
	agg.FastCommits += s.retired.RangeFastCommits.Load()
	agg.SlowCommits += s.retired.RangeSlowCommits.Load()
	agg.FastAttempts += s.retiredRange.FastAttempts
	agg.FastAborts += s.retiredRange.FastAborts
	agg.FastCommits += s.retiredRange.FastCommits
	agg.SlowCommits += s.retiredRange.SlowCommits
	s.mu.Unlock()
	for _, m := range s.tab.Load().maps {
		st := m.RangeStats()
		agg.FastAttempts += st.FastAttempts
		agg.FastAborts += st.FastAborts
		agg.FastCommits += st.FastCommits
		agg.SlowCommits += st.SlowCommits
	}
	return agg
}

// Quiesce flushes every registered handle's removal buffers and drains
// the orphan queue on every shard. Safe concurrent with in-flight
// operations; removals that commit after Quiesce returns are not
// covered.
func (s *Sharded[K, V]) Quiesce() {
	for _, m := range s.tab.Load().maps {
		m.Quiesce()
	}
}

// CheckInvariants audits every shard's composition invariants plus the
// partition invariant (every key lives in the shard its hash selects).
// The map must be quiescent, with no resize in flight.
func (s *Sharded[K, V]) CheckInvariants(opts core.CheckOptions) error {
	t := s.tab.Load()
	if t.mig != nil {
		return fmt.Errorf("shard: CheckInvariants during a resize")
	}
	for i, m := range t.maps {
		if err := m.CheckInvariants(opts); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		for k := range m.All() {
			if home := t.idxFor(mix(s.hash(k))); home != i {
				return fmt.Errorf("shard %d: key %v belongs to shard %d", i, k, home)
			}
		}
	}
	return nil
}

// SizeSlow counts logically present pairs without transactional
// protection; the map must be quiescent.
func (s *Sharded[K, V]) SizeSlow() int {
	n := 0
	for _, m := range s.authMaps() {
		n += m.SizeSlow()
	}
	return n
}

// Convenience methods on Sharded borrow a pooled transient handle; they
// are the ergonomic entry points, workers hold explicit handles. Every
// dirty release recycles the handle — counters banked, buffered removals handed to the shards'
// orphan queues — so pool churn cannot strand state.

func (s *Sharded[K, V]) borrow() *Handle[K, V] { return s.handlePool.Get().(*Handle[K, V]) }

func (s *Sharded[K, V]) release(h *Handle[K, V]) {
	h.Recycle()
	s.handlePool.Put(h)
}

// releaseClean returns a borrowed handle without the recycle pass; only
// for operations that can neither buffer a removal nor touch a
// range-path counter on any shard (lookups, inserts, point queries).
// Dirty paths always release through release(), so a pooled handle's
// sub-buffers are empty by invariant.
func (s *Sharded[K, V]) releaseClean(h *Handle[K, V]) { s.handlePool.Put(h) }

// Lookup returns the value associated with k.
func (s *Sharded[K, V]) Lookup(k K) (V, bool) {
	h := s.borrow()
	defer s.releaseClean(h)
	return h.Lookup(k)
}

// Contains reports whether k is present.
func (s *Sharded[K, V]) Contains(k K) bool {
	h := s.borrow()
	defer s.releaseClean(h)
	return h.Contains(k)
}

// Insert adds (k, v) if k is absent and reports whether it did.
func (s *Sharded[K, V]) Insert(k K, v V) bool {
	h := s.borrow()
	defer s.releaseClean(h)
	return h.Insert(k, v)
}

// Remove deletes k and reports whether it was present.
func (s *Sharded[K, V]) Remove(k K) bool {
	h := s.borrow()
	defer s.release(h)
	return h.Remove(k)
}

// Put sets k to v unconditionally, reporting whether a previous value
// was replaced.
func (s *Sharded[K, V]) Put(k K, v V) bool {
	h := s.borrow()
	defer s.release(h)
	return h.Put(k, v)
}

// Ceil returns the smallest key >= k and its value.
func (s *Sharded[K, V]) Ceil(k K) (K, V, bool) {
	h := s.borrow()
	defer s.releaseClean(h)
	return h.Ceil(k)
}

// Succ returns the smallest key > k and its value.
func (s *Sharded[K, V]) Succ(k K) (K, V, bool) {
	h := s.borrow()
	defer s.releaseClean(h)
	return h.Succ(k)
}

// Floor returns the largest key <= k and its value.
func (s *Sharded[K, V]) Floor(k K) (K, V, bool) {
	h := s.borrow()
	defer s.releaseClean(h)
	return h.Floor(k)
}

// Pred returns the largest key < k and its value.
func (s *Sharded[K, V]) Pred(k K) (K, V, bool) {
	h := s.borrow()
	defer s.releaseClean(h)
	return h.Pred(k)
}

// Range collects [l, r] into out; see Handle.Range.
func (s *Sharded[K, V]) Range(l, r K, out []Pair[K, V]) []Pair[K, V] {
	h := s.borrow()
	defer s.release(h)
	return h.Range(l, r, out)
}

// Atomic runs fn as one transactional batch using a pooled handle; see
// Handle.Atomic for the cross-shard contract.
func (s *Sharded[K, V]) Atomic(fn func(op *Txn[K, V]) error) error {
	h := s.borrow()
	defer s.release(h)
	return h.Atomic(fn)
}
