package skiphash

import "repro/internal/core"

// Map is a concurrent ordered map: one skip hash, the paper's structure
// exactly. All methods are safe for concurrent use and keep no state
// between calls. See the package documentation for the design and the
// consistency model.
type Map[K comparable, V any] = core.Map[K, V]

// Txn is the transactional view of a Map inside Map.Atomic: every
// operation performed through it commits or rolls back atomically with
// the rest.
type Txn[K comparable, V any] = core.Txn[K, V]

// Pair is a key/value pair produced by Range.
type Pair[K comparable, V any] = core.Pair[K, V]

// Config selects the tunables the paper's evaluation varies; the zero
// value gives the recommended two-path configuration.
type Config = core.Config

// CheckOptions tunes Map.CheckInvariants.
type CheckOptions = core.CheckOptions

// RangeStats aggregates a Map's range-query path counters (fast
// attempts/aborts and per-path completions).
type RangeStats = core.RangeStats

// MaintenanceStats counts reclamation work: nodes unstitched after
// their removal, and the after_range drain transactions. See
// Map.MaintenanceStats.
type MaintenanceStats = core.MaintenanceStats

// New creates a skip hash for any key type: less supplies the ordering,
// hash the distribution over buckets. New and Open are the package's
// construction surface; see the package documentation's Construction
// section.
func New[K comparable, V any](less func(a, b K) bool, hash func(K) uint64, cfg Config) *Map[K, V] {
	return core.New[K, V](less, hash, cfg)
}

// Int64Less is the natural int64 ordering, the stock less function for
// New/Open with the paper's evaluation key type.
func Int64Less(a, b int64) bool { return a < b }

// StringLess is the lexicographic (byte-wise) string ordering, the
// stock less function for New/Open with string keys.
func StringLess(a, b string) bool { return a < b }

// Hash64 is a strong mixer for integer keys, exported for callers
// building custom key types on top of int64 identities: the splitmix64
// finalizer over k plus the golden-ratio increment.
func Hash64(k int64) uint64 {
	z := uint64(k) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// HashString hashes a string key: FNV-1a over the bytes followed by a
// splitmix64-style finalizer, so every bit, the low ones that select a
// bucket included, is well mixed even for short or shared-prefix keys.
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

// Sharded is Map under an older name. It stays until a change to
// benchmark/ retires it.
type Sharded[K comparable, V any] = Map[K, V]

// NewSharded is New under an older name. It stays until a change to
// benchmark/ retires it.
func NewSharded[K comparable, V any](less func(a, b K) bool, hash func(K) uint64, cfg Config) *Map[K, V] {
	return New[K, V](less, hash, cfg)
}
