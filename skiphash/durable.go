package skiphash

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/shard"
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

// Open creates — or recovers — a durable skip hash at one shard: it is
// OpenSharded with cfg.Shards and cfg.IsolatedShards ignored, over the
// same directory format, so a directory written through either opens
// through the other.
func Open[K comparable, V any](less func(a, b K) bool, hash func(K) uint64, cfg Config, keys Codec[K], vals Codec[V]) (*Map[K, V], error) {
	cfg.Shards, cfg.IsolatedShards = 1, false
	return OpenSharded[K, V](less, hash, cfg, keys, vals)
}

// OpenSharded creates — or recovers — a durable skip hash. With
// cfg.Durability nil it is exactly NewSharded. Otherwise the
// directory's newest valid snapshot is loaded, strictly-newer
// write-ahead-log records are replayed in commit-stamp order (tolerating
// a torn record at the tail of the newest segment, the expected artifact
// of a crash mid-append; rejecting checksum corruption with an error
// matching ErrCorrupt), the map's commit clock is floored above every
// recovered stamp, and from then on every committed insert, remove and
// atomic batch is logged with its commit stamp. Call Close to flush; see
// Map.Snapshot, Map.Sync and Map.SimulateCrash for the rest of the
// durability surface.
//
// In shared mode (the default) all shards live in one commit-stamp
// domain, so one write-ahead log under cfg.Durability.Dir orders every
// shard's operations globally and a cross-shard atomic batch is a
// single log record — recovered all-or-nothing even after a crash. The
// log does not record the shard count: a shared-mode directory reopens
// at whatever count cfg.Shards asks for.
//
// With cfg.IsolatedShards every shard runs its own engine in a
// per-shard subdirectory (shard-000, shard-001, ...): per-shard WAL
// segments recovered into a consistent whole, matching isolated mode's
// per-shard atomicity contract. cfg.Shards only seeds the first open; a
// meta record tracks the live count across Resize calls, and reopening
// recovers at the recorded count regardless of cfg.Shards.
func OpenSharded[K comparable, V any](less func(a, b K) bool, hash func(K) uint64, cfg Config, keys Codec[K], vals Codec[V]) (*Map[K, V], error) {
	if cfg.Durability == nil {
		return NewSharded[K, V](less, hash, cfg), nil
	}
	if cfg.IsolatedShards {
		return openIsolatedSharded[K, V](less, hash, cfg, keys, vals)
	}
	st, err := persist.Open[K, V](*cfg.Durability, keys, vals)
	if err != nil {
		return nil, err
	}
	cfg.Clock = flooredClock(cfg, st.Recovered().MaxStamp)
	cfg.ClockFactory = nil
	s := shard.New[K, V](less, hash, cfg)
	loadRecovered(st.TakeRecovered(), func(fn func(op *Txn[K, V]) error) { _ = s.Atomic(fn) })
	s.AttachPersistence(st, st)
	st.Start(snapshotSource(st, s.SnapshotChunks))
	return s, nil
}

// shardDirName returns the directory holding shard i's engine in
// generation gen. Generation 0 keeps the legacy bare name so existing
// directories reopen unchanged; each completed resize bumps the
// generation, giving the new shard set fresh directories that can
// coexist with — and be atomically committed over — the old ones.
func shardDirName(dir string, i int, gen uint64) string {
	if gen == 0 {
		return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
	}
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.g%d", i, gen))
}

// parseShardMeta decodes the meta record: "count\n" (legacy, generation
// 0) or "count gen\n".
func parseShardMeta(raw []byte) (count int, gen uint64, err error) {
	fields := strings.Fields(string(raw))
	switch len(fields) {
	case 1:
		count, err = strconv.Atoi(fields[0])
		return count, 0, err
	case 2:
		count, err = strconv.Atoi(fields[0])
		if err != nil {
			return 0, 0, err
		}
		gen, err = strconv.ParseUint(fields[1], 10, 64)
		return count, gen, err
	}
	return 0, 0, fmt.Errorf("want 1 or 2 fields, got %d", len(fields))
}

// openIsolatedSharded opens one durability engine per shard under
// generation-suffixed subdirectories of dir. The live shard count is
// tracked by a meta file: on reopen the meta's count wins over
// cfg.Shards (which is only the initial count), so a map resized while
// running reopens at its resized geometry. Directories from any other
// generation are deleted at open — they are the leftovers of a resize
// that crashed before (new generation) or just after (old generation)
// its meta commit. The meta is written only after the first fully
// successful open, so a crashed or failed first open (which may leave a
// partial set of empty shard directories — no data can have been
// written before Open returned) is retryable.
func openIsolatedSharded[K comparable, V any](less func(a, b K) bool, hash func(K) uint64, cfg Config, keys Codec[K], vals Codec[V]) (*Map[K, V], error) {
	dir := cfg.Durability.Dir
	n := shard.ResolveShards(cfg.Shards)
	gen := uint64(0)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	metaPath := filepath.Join(dir, "shards")
	if raw, err := os.ReadFile(metaPath); err == nil {
		count, g, perr := parseShardMeta(raw)
		if perr != nil {
			return nil, fmt.Errorf("skiphash: unreadable shard-count meta %s: %q: %v", metaPath, raw, perr)
		}
		n, gen = count, g
	} else {
		// No meta: first open (or a retry after a failed/crashed first
		// open). Surplus shard directories would silently lose data, so
		// they are an error; missing ones are simply created.
		existing, gerr := filepath.Glob(filepath.Join(dir, "shard-*"))
		if gerr != nil {
			return nil, gerr
		}
		if len(existing) > n {
			return nil, fmt.Errorf("skiphash: durability dir %s holds %d shard directories but the map resolves to %d shards", dir, len(existing), n)
		}
	}
	// Sweep directories that do not belong to the committed generation:
	// either side of a crashed resize leaves a complete committed set
	// plus stale strays, so the sweep never touches live data.
	live := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		live[shardDirName(dir, i, gen)] = true
	}
	strays, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		return nil, err
	}
	for _, d := range strays {
		if !live[d] {
			if err := os.RemoveAll(d); err != nil {
				return nil, err
			}
		}
	}
	stores := make([]*persist.Store[K, V], n)
	var maxStamp uint64
	for i := range stores {
		opts := *cfg.Durability
		opts.Dir = shardDirName(dir, i, gen)
		st, err := persist.Open[K, V](opts, keys, vals)
		if err != nil {
			for _, prev := range stores[:i] {
				prev.Close()
			}
			return nil, err
		}
		stores[i] = st
		if ms := st.Recovered().MaxStamp; ms > maxStamp {
			maxStamp = ms
		}
	}
	// Every engine opened: record the shard count (atomically and
	// dir-fsynced, so a crash here leaves either no meta — retryable —
	// or a complete one, and power loss cannot silently drop the record
	// and let a later open re-partition recovered data).
	if err := persist.WriteFileAtomic(metaPath, []byte(fmt.Sprintf("%d %d\n", n, gen))); err != nil {
		for _, st := range stores {
			st.Close()
		}
		return nil, err
	}
	cfg2 := cfg
	cfg2.Shards = n
	if cfg2.Clock != nil {
		cfg2.Clock = stm.NewFloorClock(cfg2.Clock, maxStamp)
	} else {
		base := cfg2.ClockFactory
		floor := maxStamp
		cfg2.ClockFactory = func() stm.Clock {
			var inner stm.Clock
			if base != nil {
				inner = base()
			} else {
				inner = stm.NewMonotonicClock()
			}
			return stm.NewFloorClock(inner, floor)
		}
	}
	s := shard.New[K, V](less, hash, cfg2)
	for i, st := range stores {
		loadRecovered(st.TakeRecovered(), func(fn func(op *core.Txn[K, V]) error) { _ = s.Shard(i).Atomic(fn) })
		s.Shard(i).AttachPersistence(st, st)
		st.Start(snapshotSource(st, s.Shard(i).SnapshotChunks))
	}
	installIsolatedResizeHooks(s, dir, metaPath, gen, cfg, keys, vals)
	return s, nil
}

// installIsolatedResizeHooks wires Map.Resize into the per-shard
// durability layout: each resize provisions engines for the destination
// shards in a fresh generation of directories and commits by atomically
// rewriting the meta record once every group has cut over and the old
// engines have been flushed and closed, so reopen always sees exactly
// one complete generation.
//
// Durability contract during an isolated resize: writes committed to an
// already-cut-over group are logged only in the new generation, which
// becomes the recovered history only when the meta record commits at
// the end of the resize. A crash inside that window reopens the
// previous generation — complete up to each group's cutover, because
// sources keep every key — so writes accepted during the migration
// itself may be lost, exactly one generation deep. Shared mode has no
// such window: its single WAL orders every geometry's operations.
func installIsolatedResizeHooks[K comparable, V any](s *Map[K, V], dir, metaPath string, gen uint64, cfg Config, keys Codec[K], vals Codec[V]) {
	cur := gen
	var pending []*persist.Store[K, V]
	s.SetResizeHooks(shard.ResizeHooks[K, V]{
		Provision: func(idx, newN int, m *core.Map[K, V]) error {
			opts := *cfg.Durability
			opts.Dir = shardDirName(dir, idx, cur+1)
			st, err := persist.Open[K, V](opts, keys, vals)
			if err != nil {
				return err
			}
			st.TakeRecovered() // fresh directory: nothing to load
			m.AttachPersistence(st, st)
			st.Start(snapshotSource(st, m.SnapshotChunks))
			pending = append(pending, st)
			return nil
		},
		Commit: func(oldN, newN int) error {
			// The old engines were flushed and closed when Resize
			// retired their shards. Sync the new generation so its WALs
			// cover every migrated key, then commit the new geometry
			// with one atomic meta rewrite; only then is the old
			// generation garbage.
			var firstErr error
			for _, st := range pending {
				if err := st.Sync(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			pending = nil
			if firstErr != nil {
				return firstErr
			}
			next := cur + 1
			if err := persist.WriteFileAtomic(metaPath, []byte(fmt.Sprintf("%d %d\n", newN, next))); err != nil {
				return err
			}
			old := cur
			cur = next
			for i := 0; i < oldN; i++ {
				if err := os.RemoveAll(shardDirName(dir, i, old)); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			return firstErr
		},
		Abort: func(newN int) {
			// Resize closed any attached engines with the destination
			// shards; their directories hold no committed history.
			pending = nil
			for i := 0; i < newN; i++ {
				os.RemoveAll(shardDirName(dir, i, cur+1))
			}
		},
	})
}

// recoveredBatch is how many recovered pairs each load transaction
// inserts: batching amortizes per-transaction overhead during recovery
// without building oversized write sets.
const recoveredBatch = 128

// txnInserter abstracts the two Txn flavors for loadRecovered.
type txnInserter[K comparable, V any] interface{ Insert(k K, v V) bool }

// loadRecovered replays recovered pairs into a freshly built (and still
// private) map, in batched transactions, before the operation logger is
// attached — so the load is not re-logged.
func loadRecovered[K comparable, V any, T txnInserter[K, V]](pairs []persist.KV[K, V], atomic func(fn func(op T) error)) {
	for len(pairs) > 0 {
		batch := pairs
		if len(batch) > recoveredBatch {
			batch = pairs[:recoveredBatch]
		}
		atomic(func(op T) error {
			for _, kv := range batch {
				op.Insert(kv.Key, kv.Val)
			}
			return nil
		})
		pairs = pairs[len(batch):]
	}
}

// flooredClock resolves the configured commit clock and floors it above
// every recovered stamp, so post-restart commits extend the log's total
// order instead of rewinding it.
func flooredClock(cfg Config, maxStamp uint64) stm.Clock {
	clock := cfg.Clock
	if clock == nil && cfg.ClockFactory != nil {
		clock = cfg.ClockFactory()
	}
	if clock == nil {
		clock = stm.NewMonotonicClock()
	}
	return stm.NewFloorClock(clock, maxStamp)
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
