package skiphash

import (
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/thashmap"
)

// Map is a concurrent ordered map, hash-partitioned across one or more
// skip hash shards. All methods are safe for concurrent use;
// per-goroutine Handles avoid the small cost of borrowing pooled state.
// New and Open build it at one shard — the paper's structure exactly;
// the shard count is fixed at construction. See the package
// documentation for the design and the sharding and consistency model.
type Map[K comparable, V any] = shard.Sharded[K, V]

// Handle is a per-goroutine context over a Map. Handles are not safe for
// concurrent use; create one per worker with Map.NewHandle. A handle
// holds nothing its map needs back, so it needs no Close.
type Handle[K comparable, V any] = shard.Handle[K, V]

// Txn is the transactional view of a Map inside Map.Atomic or
// Handle.Atomic: every operation performed through it commits or rolls
// back atomically with the rest, whichever shards its keys live on.
type Txn[K comparable, V any] = shard.Txn[K, V]

// Pair is a key/value pair produced by Range.
type Pair[K comparable, V any] = core.Pair[K, V]

// Config selects the tunables the paper's evaluation varies; the zero
// value gives the recommended two-path configuration.
type Config = core.Config

// CheckOptions tunes Map.CheckInvariants.
type CheckOptions = core.CheckOptions

// RangeStats aggregates range-query path counters (fast attempts/aborts
// and per-path completions) across a Map's handles.
type RangeStats = core.RangeStats

// MaintenanceStats counts reclamation work: nodes unstitched after
// their removal, and the after_range drain transactions. See
// Map.MaintenanceStats.
type MaintenanceStats = core.MaintenanceStats

// New creates a skip hash for any key type: less supplies the ordering,
// hash the distribution over buckets. It is NewSharded at one shard
// (cfg.Shards is ignored). New and Open, plus their spelled-out Sharded
// forms, are the package's construction surface; see the package
// documentation's Construction section.
func New[K comparable, V any](less func(a, b K) bool, hash func(K) uint64, cfg Config) *Map[K, V] {
	cfg.Shards = 1
	return NewSharded[K, V](less, hash, cfg)
}

// Int64Less is the natural int64 ordering, the stock less function for
// New/Open with the paper's evaluation key type.
func Int64Less(a, b int64) bool { return a < b }

// StringLess is the lexicographic (byte-wise) string ordering, the
// stock less function for New/Open with string keys.
func StringLess(a, b string) bool { return a < b }

// Hash64 is a strong mixer for integer keys, exported for callers
// building custom key types on top of int64 identities.
func Hash64(k int64) uint64 { return thashmap.Hash64(k) }

// HashString hashes a string key: FNV-1a over the bytes followed by a
// splitmix64-style finalizer, so both the top bits (shard routing) and
// the low bits (bucket selection) are well mixed even for short or
// shared-prefix keys.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Sharded is Map under the name that spells out its general form; the
// two are one type.
type Sharded[K comparable, V any] = shard.Sharded[K, V]

// NewSharded creates a skip hash for any key type: less supplies the
// ordering, hash the distribution over shards (top bits) and buckets
// (low bits), cfg.Shards the partition count, fixed for the map's life
// (zero derives it from GOMAXPROCS).
func NewSharded[K comparable, V any](less func(a, b K) bool, hash func(K) uint64, cfg Config) *Map[K, V] {
	return shard.New[K, V](less, hash, cfg)
}
