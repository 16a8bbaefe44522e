package bench

import (
	"fmt"
	"io"
	"os"

	"repro/internal/persist"
	"repro/internal/thashmap"
	"repro/skiphash"
)

// The persist experiment measures what durability costs on the
// write-heavy mix: the same workload runs against the skip hash with
// durability off and with the WAL at each fsync policy, reporting
// throughput, the WAL volume generated, and the overhead versus the
// durability-off baseline. The design goal is that FsyncNone — pure
// logging, no fsync on the hot path — stays within a few percent,
// FsyncInterval close behind, and FsyncAlways costs what a group-
// committed fsync per operation must cost on the host's storage.

// persistSubject is one durability configuration under test.
type persistSubject struct {
	// label names the fsync policy ("off" for the baseline).
	label string
	// build returns the map and a cleanup; dir is empty for "off".
	build func(dir string) (Map, func(), error)
}

// durableSkipHash wraps a durable skip hash for the harness, exposing
// the store's stats for the WAL-volume and sync columns.
type durableSkipHash struct {
	m  *skiphash.Map[int64, int64]
	st *persist.Store[int64, int64]
}

func (s *durableSkipHash) Name() string        { return "skiphash-durable" }
func (s *durableSkipHash) SupportsRange() bool { return true }
func (s *durableSkipHash) NewWorker() Worker   { return &skipHashWorker{h: s.m.NewHandle()} }

// PersistWorkload is the write-heavy mix the overhead target is defined
// on: 98% updates, 1% lookups, 1% ranges (Figure 5's mix f), which
// makes nearly every operation append a WAL record.
var PersistWorkload = Workload{Name: "1% lookup, 98% update, 1% range", LookupPct: 1, UpdatePct: 98, RangePct: 1}

// persistSubjects returns the durability configurations in report
// order.
func persistSubjects(buckets int) []persistSubject {
	mk := func(policy persist.FsyncPolicy) func(dir string) (Map, func(), error) {
		return func(dir string) (Map, func(), error) {
			cfg := skiphash.Config{Buckets: buckets, Durability: &skiphash.Durability{
				Dir:   dir,
				Fsync: policy,
				// The experiment measures logging, not snapshotting:
				// snapshots are driven explicitly by real deployments and
				// would inject background I/O noise here.
				SnapshotBytes: -1,
			}}
			m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
			if err != nil {
				return nil, nil, err
			}
			st, _ := m.Persister().(*persist.Store[int64, int64])
			return &durableSkipHash{m: m, st: st}, func() { m.Close() }, nil
		}
	}
	return []persistSubject{
		{label: "off", build: func(string) (Map, func(), error) {
			m := NewSkipHash("two-path", buckets)
			return m, func() {}, nil
		}},
		{label: persist.FsyncNone.String(), build: mk(persist.FsyncNone)},
		{label: persist.FsyncInterval.String(), build: mk(persist.FsyncInterval)},
		{label: persist.FsyncAlways.String(), build: mk(persist.FsyncAlways)},
	}
}

// Persist runs the durability-overhead experiment at a fixed thread
// count (the last — highest — entry of opts.Threads, defaulting to
// GOMAXPROCS-scaled) on the write-heavy mix. WAL directories are
// created under baseDir (a temp dir when empty) and removed afterwards.
func Persist(w io.Writer, baseDir string, opts Options) error {
	opts = opts.withDefaults()
	threads := opts.Threads[len(opts.Threads)-1]
	wl := PersistWorkload
	wl.Universe = opts.Universe
	buckets := thashmap.DefaultBuckets

	cleanupBase := func() {}
	if baseDir == "" {
		tmp, err := os.MkdirTemp("", "skipbench-persist-*")
		if err != nil {
			return err
		}
		baseDir = tmp
		cleanupBase = func() { os.RemoveAll(tmp) }
	}
	defer cleanupBase()

	fmt.Fprintf(w, "# Persist: %s, %d threads, universe %d, %v x %d trials (WAL dirs under %s)\n",
		wl.Name, threads, opts.Universe, opts.Duration, opts.Trials, baseDir)
	fmt.Fprintf(w, "%-10s %12s %12s %12s %14s\n", "fsync", "Mops/s", "overhead", "WAL MiB", "syncs")

	var baseline float64
	for _, sub := range persistSubjects(buckets) {
		dir := ""
		if sub.label != "off" {
			dir = fmt.Sprintf("%s/wal-%s", baseDir, sub.label)
			// A leftover directory from a previous run would be recovered
			// into the map and skew prefill, WAL volume and overhead; each
			// subject must start from an empty log.
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		m, cleanup, err := sub.build(dir)
		if err != nil {
			return err
		}
		rc := RunConfig{Threads: threads, Duration: opts.Duration, Trials: opts.Trials, Seed: opts.Seed + 53}
		Prefill(m, wl.Universe, rc.Seed+1)
		var statsBefore persist.StoreStats
		ds, durable := m.(*durableSkipHash)
		if durable && ds.st != nil {
			statsBefore = ds.st.Stats()
		}
		res := RunTrials(m, wl, rc)
		mops := res.Mops()
		overhead := 0.0
		if sub.label == "off" {
			baseline = mops
		} else if baseline > 0 {
			overhead = (baseline - mops) / baseline * 100
		}
		var walMB float64
		var syncs uint64
		if durable && ds.st != nil {
			d := ds.st.Stats()
			walMB = float64(d.AppendedBytes-statsBefore.AppendedBytes) / (1 << 20)
			syncs = d.Syncs - statsBefore.Syncs
		}
		fmt.Fprintf(w, "%-10s %12.2f %11.1f%% %12.1f %14d\n", sub.label, mops, overhead, walMB, syncs)
		if opts.CSV != nil {
			fmt.Fprintf(opts.CSV, "persist,%s,%d,%.4f,%.2f,%.2f\n", sub.label, threads, mops, overhead, walMB)
		}
		cleanup()
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	return nil
}
