package skiphash

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/stm"
)

// Durability configures persistence for the Open constructors; set it
// as Config.Durability. See the package documentation's "Durability and
// recovery" section for the fsync-policy contract.
type Durability = persist.Options

// FsyncPolicy selects how aggressively the write-ahead log is fsynced.
type FsyncPolicy = persist.FsyncPolicy

// Fsync policies, least to most durable: FsyncNone never fsyncs while
// running (a clean Close still flushes and syncs), FsyncInterval (the
// default) fsyncs in the background at least every Durability.FsyncEvery,
// FsyncAlways group-commits — every update blocks until an fsync covers
// its record.
const (
	FsyncInterval = persist.FsyncInterval
	FsyncAlways   = persist.FsyncAlways
	FsyncNone     = persist.FsyncNone
)

// Codec serializes keys or values of a durable map; see persist.Codec.
type Codec[T any] = persist.Codec[T]

// Int64Codec encodes int64 keys or values for durable maps.
func Int64Codec() Codec[int64] { return persist.Int64Codec() }

// StringCodec encodes string keys or values for durable maps.
func StringCodec() Codec[string] { return persist.StringCodec() }

// Float64Codec encodes float64 values for durable maps.
func Float64Codec() Codec[float64] { return persist.Float64Codec() }

// BytesCodec encodes []byte values for durable maps.
func BytesCodec() Codec[[]byte] { return persist.BytesCodec() }

// ErrCorrupt is matched (errors.Is) by the corruption errors Open
// returns when a WAL segment or snapshot fails its checksums anywhere
// recovery is not allowed to tolerate it.
var ErrCorrupt = persist.ErrCorrupt

// ErrNotDurable is returned by Snapshot/Sync/SimulateCrash on maps
// constructed without Config.Durability.
var ErrNotDurable = core.ErrNotDurable

// Open creates — or recovers — a durable skip hash. With
// cfg.Durability nil it is exactly New. Otherwise the directory's newest
// valid snapshot and the write-ahead-log records its chunks do not
// already reflect are folded in commit-stamp order (tolerating a torn
// record at the tail of the newest segment, the expected artifact of a
// crash mid-append; rejecting checksum corruption with an error matching
// ErrCorrupt), the map is bulk-built from the sorted result, the map's
// commit clock is floored above every recovered stamp, and from then on
// every committed insert, remove and atomic batch is logged with its
// commit stamp, a batch as a single record — recovered all-or-nothing
// even after a crash. Call Close to flush; see Map.Snapshot, Map.Sync
// and Map.SimulateCrash for the rest of the durability surface.
//
// A directory in the retired per-shard layout (a "shards" meta file and
// shard-NNN subdirectories, one engine per shard) is refused with an
// error naming it, and left untouched.
func Open[K comparable, V any](less func(a, b K) bool, hash func(K) uint64, cfg Config, keys Codec[K], vals Codec[V]) (*Map[K, V], error) {
	if cfg.Durability == nil {
		return New[K, V](less, hash, cfg), nil
	}
	if err := refuseRetiredLayout(cfg.Durability.Dir); err != nil {
		return nil, err
	}
	st, err := persist.Open[K, V](*cfg.Durability, less, keys, vals)
	if err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = stm.NewMonotonicClock()
	}
	// Floor the clock above every recovered stamp, so post-restart
	// commits extend the log's total order instead of rewinding it.
	cfg.Clock = stm.NewFloorClock(clock, st.Recovered().MaxStamp)
	m := New[K, V](less, hash, cfg)
	// Recovery hands the pairs back strictly ascending by less: bulk-build
	// the still private map from them, before the logger and the
	// snapshotter are attached.
	pairs := st.TakeRecovered()
	m.LoadSorted(func(yield func(K, V) bool) {
		for _, kv := range pairs {
			if !yield(kv.Key, kv.Val) {
				return
			}
		}
	})
	m.AttachPersistence(st, st)
	st.Start(snapshotSource(st, m.SnapshotChunks))
	return m, nil
}

// refuseRetiredLayout fails when dir holds the per-shard layout that
// isolated-shard maps used to write: a "shards" meta file beside one
// engine directory per shard. The shared engine would see neither a log
// nor a snapshot there, start a fresh log beside the old data and drop
// it at its next snapshot, so such a directory must not be opened.
func refuseRetiredLayout(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil // absent: persist.Open creates it; unreadable: it reports that
	}
	var found []string
	for _, e := range entries {
		switch name := e.Name(); {
		case name == "shards":
			found = append(found, name)
		case strings.HasPrefix(name, "shard-") && e.IsDir():
			found = append(found, name+"/")
		}
	}
	if len(found) > 0 {
		return fmt.Errorf("skiphash: %s holds the retired per-shard (isolated-shard) durable layout (%s); this version reads only the single-log layout and will not open it",
			dir, strings.Join(found, ", "))
	}
	return nil
}

// snapshotSource adapts a map's SnapshotChunks iterator to the persist
// engine's callback type, reusing one conversion buffer.
func snapshotSource[K comparable, V any](st *persist.Store[K, V],
	chunks func(int, func(uint64, []Pair[K, V]) error) error) persist.SnapshotSource[K, V] {
	return func(chunkSize int, emit func(stamp uint64, kvs []persist.KV[K, V]) error) error {
		kvs := make([]persist.KV[K, V], 0, chunkSize)
		return chunks(chunkSize, func(stamp uint64, pairs []Pair[K, V]) error {
			kvs = kvs[:0]
			for _, p := range pairs {
				kvs = append(kvs, persist.KV[K, V]{Key: p.Key, Val: p.Val})
			}
			return emit(stamp, kvs)
		})
	}
}
