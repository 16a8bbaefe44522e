package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/stm"
	"repro/skiphash"
)

// kv is a key/value pair as the embedded map's Range returns it.
type kv = skiphash.Pair[int64, int64]

// worker is one load thread's (or connection's) view of the map under
// test. It is used by a single goroutine.
type worker interface {
	get(k int64) (int64, bool, error)
	insert(k, v int64) (bool, error)
	remove(k int64) (bool, error)
	// scan appends every pair with lo <= key <= hi, in key order.
	scan(lo, hi int64, out []kv) ([]kv, error)
	close()
}

// burster is implemented by workers that can keep several requests in
// flight: burst issues ops as one pipelined window, fills res in order
// and records each request's latency (flush to reply) in lat.
type burster interface {
	burst(ops []op, res []opResult, lat []int64) error
}

// opResult is what an operation returned.
type opResult struct {
	val int64
	ok  bool
	err error
}

// target is a constructed, servable map: what set-up produces.
type target interface {
	worker(thread int) worker
	// counters returns cumulative per-layer counters, read through the
	// public Stats accessors (or the daemon's STATS op).
	counters() (counters, error)
	close() error
}

// counters is a flat set of cumulative counts; see the c* keys.
type counters map[string]float64

const (
	cCommits        = "stm_commits"
	cAborts         = "stm_aborts"
	cBackoffNs      = "stm_backoff_ns"
	cFastHits       = "stm_fastread_hits"
	cFastFallbacks  = "stm_fastread_fallbacks"
	cRangeAttempts  = "range_fast_attempts"
	cRangeAborts    = "range_fast_aborts"
	cRangeFast      = "range_fast_commits"
	cRangeSlow      = "range_slow_commits"
	cDrained        = "drained_nodes"
	cShards         = "shards"
	cWalRecords     = "wal_records"
	cWalBytes       = "wal_bytes"
	cWalFlushes     = "wal_flushes"
	cWalSyncs       = "wal_syncs"
	cSrvRuns        = "server_runs"
	cSrvRunRequests = "server_run_requests"
	cSrvBusy        = "server_busy_refusals"
)

func (c counters) sub(prev counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - prev[k]
	}
	d[cShards] = c[cShards] // a gauge, not a count
	return d
}

func (c counters) addSTM(s stm.Stats) {
	c[cCommits] = float64(s.Commits)
	c[cAborts] = float64(s.Aborts)
	c[cBackoffNs] = float64(s.BackoffNanos)
	c[cFastHits] = float64(s.FastReadHits)
	c[cFastFallbacks] = float64(s.FastReadFallbacks)
}

func (c counters) addCore(r core.RangeStats, m core.MaintenanceStats) {
	c[cRangeAttempts] = float64(r.FastAttempts)
	c[cRangeAborts] = float64(r.FastAborts)
	c[cRangeFast] = float64(r.FastCommits)
	c[cRangeSlow] = float64(r.SlowCommits)
	c[cDrained] = float64(m.DrainedNodes)
}

func (c counters) addPersist(s persist.StoreStats) {
	c[cWalRecords] = float64(s.Records)
	c[cWalBytes] = float64(s.AppendedBytes)
	c[cWalFlushes] = float64(s.Flushes)
	c[cWalSyncs] = float64(s.Syncs)
}

// shardedTarget is embed-point's map: skiphash.NewSharded with the
// zero Config (default shard count, one shared commit clock).
type shardedTarget struct {
	m *skiphash.Sharded[int64, int64]
}

func openSharded() *shardedTarget {
	return &shardedTarget{m: skiphash.NewSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})}
}

func (t *shardedTarget) worker(int) worker { return &handleWorker{h: t.m.NewHandle()} }

func (t *shardedTarget) counters() (counters, error) {
	c := counters{cShards: float64(t.m.Shards())}
	c.addSTM(t.m.STMStats())
	c.addCore(t.m.RangeStats(), t.m.MaintenanceStats())
	return c, nil
}

func (t *shardedTarget) close() error { t.m.Close(); return nil }

// mapTarget is the unsharded skiphash.Map, in memory (embed-range) or
// durable (durable-write).
type mapTarget struct {
	m   *skiphash.Map[int64, int64]
	dir string // "" = in memory
}

func mapConfig(dir string, fsync skiphash.FsyncPolicy) skiphash.Config {
	var cfg skiphash.Config
	if dir != "" {
		cfg.Durability = &skiphash.Durability{Dir: dir, Fsync: fsync}
	}
	return cfg
}

// openMap constructs — or, over a directory that already holds a log,
// recovers — the map.
func openMap(dir string, fsync skiphash.FsyncPolicy) (*mapTarget, error) {
	m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64,
		mapConfig(dir, fsync), skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		return nil, fmt.Errorf("open map in %q: %w", dir, err)
	}
	return &mapTarget{m: m, dir: dir}, nil
}

func (t *mapTarget) worker(int) worker { return &handleWorker{h: t.m.NewHandle()} }

func (t *mapTarget) counters() (counters, error) {
	c := counters{cShards: 1}
	c.addSTM(t.m.Runtime().Stats())
	c.addCore(t.m.RangeStats(), t.m.MaintenanceStats())
	if st, ok := t.m.Persister().(interface{ Stats() persist.StoreStats }); ok {
		c.addPersist(st.Stats())
	}
	return c, nil
}

// close makes a checked shutdown: Sync, Close, then the engine's
// sticky error (Map.Close itself cannot report one).
func (t *mapTarget) close() error {
	p := t.m.Persister()
	if p == nil {
		t.m.Close()
		return nil
	}
	err := t.m.Sync()
	t.m.Close()
	if err == nil {
		err = p.Err()
	}
	return err
}

// embeddedHandle is the method set core.Handle and shard.Handle share.
type embeddedHandle interface {
	Lookup(k int64) (int64, bool)
	Insert(k, v int64) bool
	Remove(k int64) bool
	Range(l, r int64, out []kv) []kv
	Close()
}

// handleWorker drives an embedded map through a per-goroutine Handle.
type handleWorker struct {
	h embeddedHandle
}

func (w *handleWorker) get(k int64) (int64, bool, error) {
	v, ok := w.h.Lookup(k)
	return v, ok, nil
}
func (w *handleWorker) insert(k, v int64) (bool, error) { return w.h.Insert(k, v), nil }
func (w *handleWorker) remove(k int64) (bool, error)    { return w.h.Remove(k), nil }
func (w *handleWorker) scan(lo, hi int64, out []kv) ([]kv, error) {
	return w.h.Range(lo, hi, out), nil
}
func (w *handleWorker) close() { w.h.Close() }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
