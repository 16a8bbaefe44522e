// Package shard partitions the skip hash across S shards, all running
// on one STM runtime. Keys are hash-partitioned: each shard is a complete core.Map (hash
// index + doubly linked skip list + range query coordinator), so point
// operations touch exactly one shard and never share a cacheline with
// traffic on any other. Ordered operations are rebuilt at this layer by
// k-way merging per-shard segments, which stay sorted and disjoint
// because the shards partition the key space. The partition count is
// fixed when the map is built; a durable map keeps no geometry on disk,
// so it reopens at any count.
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

	"repro/internal/core"
	"repro/internal/stm"
)

// Pair is a key/value pair produced by range queries.
type Pair[K comparable, V any] = core.Pair[K, V]

// maxShards bounds the partition count; beyond this the per-shard merge
// and probe fan-out costs dominate any contention win.
const maxShards = 256

// Sharded is a concurrent ordered map hash-partitioned across S
// independent skip hash shards, S fixed at construction. All methods are
// safe for concurrent use; hot paths should go through per-goroutine
// Handles.
type Sharded[K comparable, V any] struct {
	less func(a, b K) bool
	hash func(K) uint64
	rt   *stm.Runtime // the one runtime every shard runs on
	// maps are the shards; key k lives in maps[idxFor(mix(hash(k)))].
	maps  []*core.Map[K, V]
	shift uint

	handlePool sync.Pool
	// counters holds the striped counts of cross-shard range queries
	// (a one-shard map's ranges count in its shard).
	counters  core.Counters
	closed    atomic.Bool
	closeOnce sync.Once
	// persister is the durability engine: one WAL spanning every shard,
	// so a cross-shard batch is a single record. Nil on in-memory maps.
	persister core.Persister
}

// mix spreads the user hash before routing; its top bits pick the
// shard.
func mix(h uint64) uint64 { return h * 0x9e3779b97f4a7c15 }

// shiftFor is the right shift that maps a mixed hash onto n shards (n a
// power of two); at one shard it is 64, which Go shifts to zero.
func shiftFor(n int) uint { return uint(64 - bits.TrailingZeros(uint(n))) }

// idxFor returns the index of the shard that owns mixed.
func (s *Sharded[K, V]) idxFor(mixed uint64) int { return int(mixed >> s.shift) }

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
// cfg.Shards selects the partition count (0 derives a power of two from
// GOMAXPROCS) and cfg.Buckets the
// total hash-table budget across shards; the remaining fields configure
// each shard as in core.New. hash must mix its input well: the top bits
// pick the shard (after one extra multiplicative mix) and the low bits
// the bucket chain.
func New[K comparable, V any](less func(a, b K) bool, hash func(K) uint64, cfg core.Config) *Sharded[K, V] {
	n := normalizeShards(cfg.Shards)
	s := &Sharded[K, V]{
		less:  less,
		hash:  hash,
		rt:    stm.New(stm.WithClock(cfg.Clock)),
		maps:  make([]*core.Map[K, V], n),
		shift: shiftFor(n),
	}
	per := perShardConfig(cfg, n)
	for i := range s.maps {
		s.maps[i] = core.NewIn[K, V](s.rt, less, hash, per)
	}
	s.handlePool.New = func() any { return s.NewHandle() }
	return s
}

// Close flushes, fsyncs and closes a durable map's write-ahead log; on
// an in-memory map, which owns no goroutine, it only marks the map
// closed. Close is idempotent and safe concurrent with operations and
// other Close calls: every call returns only after the log is closed.
// Operations issued after Close still work but are no longer logged.
func (s *Sharded[K, V]) Close() {
	s.closed.Store(true)
	s.closeOnce.Do(func() {
		if s.persister != nil {
			s.persister.Close()
		}
	})
}

// AttachPersistence wires durability: l observes every shard's
// committed logical operations (all shards share one commit clock, so
// one WAL orders them globally, and a cross-shard batch is a single
// atomic record), and p owns snapshots, syncs and shutdown.
func (s *Sharded[K, V]) AttachPersistence(l core.OpLogger[K, V], p core.Persister) {
	for _, m := range s.maps {
		m.AttachPersistence(l)
	}
	s.persister = p
}

// LoadSorted bulk-builds the map from strictly ascending pairs; see
// core.Map.LoadSorted, whose contract (an empty map no other goroutine
// has seen yet) it shares. A one-shard map takes pairs straight through.
// Otherwise each shard takes one pass over pairs and keeps the keys
// routed to it, still ascending: the pairs are never copied out per
// shard, and the price is one hash per key per shard.
func (s *Sharded[K, V]) LoadSorted(pairs iter.Seq2[K, V]) {
	if len(s.maps) == 1 {
		s.maps[0].LoadSorted(pairs)
		return
	}
	for i, m := range s.maps {
		m.LoadSorted(func(yield func(K, V) bool) {
			for k, v := range pairs {
				if s.idxFor(mix(s.hash(k))) == i && !yield(k, v) {
					return
				}
			}
		})
	}
}

// SnapshotChunks iterates every shard's key space in chunked consistent
// reads for a durable snapshot; see core.Map.SnapshotChunks. Chunks from
// different shards carry their own stamps — recovery's per-key chunk
// watermarks make the union consistent without stopping writers.
func (s *Sharded[K, V]) SnapshotChunks(chunkSize int, fn func(stamp uint64, pairs []Pair[K, V]) error) error {
	for _, m := range s.maps {
		if err := m.SnapshotChunks(chunkSize, fn); err != nil {
			return err
		}
	}
	return nil
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

// SetCommitObserver installs o (or, with nil, removes it) on the
// runtime every shard runs on.
func (s *Sharded[K, V]) SetCommitObserver(o stm.CommitObserver) { s.rt.SetCommitObserver(o) }

// MaintenanceStats aggregates the reclamation counters of every shard.
func (s *Sharded[K, V]) MaintenanceStats() core.MaintenanceStats {
	var agg core.MaintenanceStats
	for _, m := range s.maps {
		agg = agg.Add(m.MaintenanceStats())
	}
	return agg
}

// StitchedSlow counts all stitched nodes across shards, including
// logically deleted ones, without transactional protection; with
// SizeSlow it measures the deferred-reclamation backlog.
func (s *Sharded[K, V]) StitchedSlow() int {
	n := 0
	for _, m := range s.maps {
		n += m.StitchedSlow()
	}
	return n
}

// Shards returns the shard count, fixed when the map was built.
func (s *Sharded[K, V]) Shards() int { return len(s.maps) }

// Shard exposes one partition (for stats and tests); valid for
// i < Shards().
func (s *Sharded[K, V]) Shard(i int) *core.Map[K, V] { return s.maps[i] }

// Runtime returns the STM runtime every shard runs on.
func (s *Sharded[K, V]) Runtime() *stm.Runtime { return s.rt }

// STMStats returns the transaction counters of the map's runtime.
func (s *Sharded[K, V]) STMStats() stm.Stats { return s.rt.Stats() }

// Prefetch warms the cache lines a point read of k will touch on its
// home shard; see core.Map.Prefetch.
func (s *Sharded[K, V]) Prefetch(k K) {
	s.maps[s.idxFor(mix(s.hash(k)))].Prefetch(k)
}

// RangeStats aggregates range-path counters: the cross-shard ranges
// counted on this map plus each shard's own (ranges a one-shard map
// answers directly). Counters only grow, so successive snapshots never
// decrease.
func (s *Sharded[K, V]) RangeStats() core.RangeStats {
	agg := s.counters.RangeStats()
	for _, m := range s.maps {
		st := m.RangeStats()
		agg.FastAttempts += st.FastAttempts
		agg.FastAborts += st.FastAborts
		agg.FastCommits += st.FastCommits
		agg.SlowCommits += st.SlowCommits
	}
	return agg
}

// CheckInvariants audits every shard's composition invariants plus the
// partition invariant (every key lives in the shard its hash selects).
// The map must be quiescent.
func (s *Sharded[K, V]) CheckInvariants(opts core.CheckOptions) error {
	for i, m := range s.maps {
		if err := m.CheckInvariants(opts); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		for k := range m.All() {
			if home := s.idxFor(mix(s.hash(k))); home != i {
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
	for _, m := range s.maps {
		n += m.SizeSlow()
	}
	return n
}

// Convenience methods on Sharded borrow a pooled handle; they are the
// ergonomic entry points, workers hold explicit handles.

func (s *Sharded[K, V]) borrow() *Handle[K, V] { return s.handlePool.Get().(*Handle[K, V]) }

func (s *Sharded[K, V]) release(h *Handle[K, V]) { s.handlePool.Put(h) }

// Lookup returns the value associated with k.
func (s *Sharded[K, V]) Lookup(k K) (V, bool) {
	h := s.borrow()
	defer s.release(h)
	return h.Lookup(k)
}

// Contains reports whether k is present.
func (s *Sharded[K, V]) Contains(k K) bool {
	h := s.borrow()
	defer s.release(h)
	return h.Contains(k)
}

// Insert adds (k, v) if k is absent and reports whether it did.
func (s *Sharded[K, V]) Insert(k K, v V) bool {
	h := s.borrow()
	defer s.release(h)
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
	defer s.release(h)
	return h.Ceil(k)
}

// Succ returns the smallest key > k and its value.
func (s *Sharded[K, V]) Succ(k K) (K, V, bool) {
	h := s.borrow()
	defer s.release(h)
	return h.Succ(k)
}

// Floor returns the largest key <= k and its value.
func (s *Sharded[K, V]) Floor(k K) (K, V, bool) {
	h := s.borrow()
	defer s.release(h)
	return h.Floor(k)
}

// Pred returns the largest key < k and its value.
func (s *Sharded[K, V]) Pred(k K) (K, V, bool) {
	h := s.borrow()
	defer s.release(h)
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
