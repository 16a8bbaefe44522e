package persist_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"repro/internal/fsfake"
	"repro/internal/persist"
	"repro/internal/stm"
)

// paths lists the paths of the calls of kind.
func paths(calls []fsfake.Call, kind fsfake.Kind) []string {
	var out []string
	for _, c := range calls {
		if c.Kind == kind {
			out = append(out, c.Path)
		}
	}
	return out
}

func TestMkdirAllDurableSyncsParents(t *testing.T) {
	// Each level MkdirAll creates has its parent synced, outermost
	// first; an existing directory syncs nothing. A fresh Open creates
	// its directory the same way.
	rec := fsfake.NewRecorder(nil)
	fsys := persist.FSOf(persist.OnDisk(persist.Options{}, rec))
	took := func() []string { return paths(rec.Take(), fsfake.DirSync) }

	root := t.TempDir()
	a, ab := filepath.Join(root, "a"), filepath.Join(root, "a", "b")
	if err := fsys.MkdirAll(filepath.Join(ab, "c")); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	if got, want := took(), []string{root, a, ab}; !slices.Equal(got, want) {
		t.Fatalf("synced %q, want %q", got, want)
	}
	if err := fsys.MkdirAll(filepath.Join(ab, "c")); err != nil {
		t.Fatalf("MkdirAll of an existing directory: %v", err)
	}
	if got := took(); len(got) != 0 {
		t.Fatalf("existing directory synced %q, want nothing", got)
	}
	if err := os.WriteFile(filepath.Join(root, "file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fsys.MkdirAll(filepath.Join(root, "file")); err == nil {
		t.Fatal("MkdirAll over a file succeeded")
	}
	took()

	st := persist.OpenInt64Store(t, persist.OnDisk(persist.Options{Dir: filepath.Join(a, "store"), Fsync: persist.FsyncNone}, rec))
	st.Close()
	if got := took(); !slices.Contains(got, a) {
		t.Fatalf("Open of a fresh directory synced %q, want its parent %q among them", got, a)
	}
}

// TestOpenSyncsNewestSegment: the newest recovered segment stops being
// the last one once the new run flushes, where a torn tail is
// corruption. Open must fsync it first, as a rotation does, whether or
// not its tail was torn: frames a crashed run wrote but never fsynced
// could otherwise be torn by a later power loss and make the directory
// unrecoverable.
func TestOpenSyncsNewestSegment(t *testing.T) {
	rec := fsfake.NewRecorder(nil)
	opts := persist.OnDisk(persist.Options{Dir: t.TempDir(), SnapshotBytes: -1}, rec)
	rt := stm.New()
	model := map[int64]int64{}
	persist.Incarnation(t, opts, rt, model, 1, 2)
	persist.Incarnation(t, opts, rt, model, 3)
	rec.Take()
	st := persist.OpenInt64Store(t, opts)
	if st.Recovered().TornTail {
		t.Fatal("clean close recovered as a torn tail")
	}
	var synced []string
	for _, p := range paths(rec.Take(), fsfake.FileSync) {
		synced = append(synced, filepath.Base(p))
	}
	if want := []string{persist.SegName(2)}; !slices.Equal(synced, want) {
		t.Fatalf("Open fsynced %v, want %v", synced, want)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestSyncCounts pins how many file and directory fsyncs each durable
// operation issues: a change that adds or drops one changes this table.
func TestSyncCounts(t *testing.T) {
	put := func(t *testing.T, rt *stm.Runtime, st *persist.Store[int64, int64], k int64) {
		var ws persist.WriteScratch
		persist.LogTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, k, k) })
	}
	// Every scenario runs with no background flush, write-out or
	// snapshot, so each count is the operation's own.
	base := persist.Options{Fsync: persist.FsyncNone, FsyncEvery: 1 << 62, SnapshotBytes: -1}
	for _, sc := range []struct {
		name        string
		files, dirs int
		// run performs the operation, between setup and teardown it does
		// itself, inside measure.
		run func(t *testing.T, opts persist.Options, measure func(func()))
	}{
		{"fresh Open", 0, 1, func(t *testing.T, opts persist.Options, measure func(func())) {
			var st *persist.Store[int64, int64]
			measure(func() { st = persist.OpenInt64Store(t, opts) })
			st.Close()
		}},
		{"segment rotation", 2, 1, func(t *testing.T, opts persist.Options, measure func(func())) {
			opts.SegmentBytes = 1
			st, rt := persist.OpenInt64Store(t, opts), stm.New()
			defer st.Close()
			put(t, rt, st, 1)
			measure(func() { mustOK(t, st.Sync()) })
		}},
		{"Snapshot", 1, 2, func(t *testing.T, opts persist.Options, measure func(func())) {
			opts.SegmentBytes = 1
			st, rt := persist.OpenInt64Store(t, opts), stm.New()
			defer st.Close()
			put(t, rt, st, 1)
			mustOK(t, st.Sync()) // seals the segment the snapshot covers
			st.Start(func(_ int, emit func(uint64, []persist.KV[int64, int64]) error) error {
				return emit(rt.Clock().Read(), []persist.KV[int64, int64]{{Key: 1, Val: 1}})
			})
			measure(func() { mustOK(t, st.Snapshot()) })
			if s := st.Stats(); s.SegmentsDeleted != 1 {
				t.Fatalf("the snapshot deleted %d segments, want 1", s.SegmentsDeleted)
			}
		}},
		{"clean Close", 1, 1, func(t *testing.T, opts persist.Options, measure func(func())) {
			st, rt := persist.OpenInt64Store(t, opts), stm.New()
			put(t, rt, st, 1)
			measure(func() { mustOK(t, st.Close()) })
		}},
		{"reopen after a torn tail", 1, 1, func(t *testing.T, opts persist.Options, measure func(func())) {
			st, rt := persist.OpenInt64Store(t, opts), stm.New()
			put(t, rt, st, 1)
			mustOK(t, st.Close())
			seg := filepath.Join(opts.Dir, persist.SegName(1))
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{9, 0, 0}) // a frame header cut short
			f.Close()
			measure(func() { st = persist.OpenInt64Store(t, opts) })
			defer st.Close()
			if !st.Recovered().TornTail {
				t.Fatal("the cut header did not read as a torn tail")
			}
		}},
		{"Restore and Install", 2, 3, func(t *testing.T, opts persist.Options, measure func(func())) {
			st, rt := persist.OpenInt64Store(t, opts), stm.New()
			put(t, rt, st, 1)
			mustOK(t, st.Close())
			var snap bytes.Buffer
			if _, _, err := persist.WriteSnapshot(&snap, func(_ int, emit func(uint64, []persist.KV[int64, int64]) error) error {
				return emit(rt.Clock().Read(), []persist.KV[int64, int64]{{Key: 2, Val: 2}})
			}, persist.Int64Codec(), persist.Int64Codec()); err != nil {
				t.Fatal(err)
			}
			measure(func() {
				rs, err := persist.NewRestore(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer rs.Close()
				mustOK(t, rs.StageSnapshot(snap.Bytes()))
				mustOK(t, rs.Sync())
				mustOK(t, rs.Install())
			})
			st = persist.OpenInt64Store(t, opts)
			defer st.Close()
			if got := st.TakeRecovered(); len(got) != 1 || got[0].Key != 2 {
				t.Fatalf("the installed restore recovered %v, want only key 2", got)
			}
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			rec := fsfake.NewRecorder(nil)
			opts := base
			opts.Dir = filepath.Join(t.TempDir(), "store")
			opts = persist.OnDisk(opts, rec)
			var calls []fsfake.Call
			sc.run(t, opts, func(op func()) {
				rec.Take()
				op()
				calls = rec.Take()
			})
			if f, d := fsfake.Count(calls, fsfake.FileSync), fsfake.Count(calls, fsfake.DirSync); f != sc.files || d != sc.dirs {
				t.Fatalf("%d file and %d directory fsyncs, want %d and %d: %v", f, d, sc.files, sc.dirs, calls)
			}
		})
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestLogWriteENOSPC: a segment write that fails with ENOSPC under
// FsyncInterval fails the Sync waiting on it, the error stays (the next
// transaction is refused with it, and Err and every later Sync and
// Close report it), and a reopen recovers every write a successful Sync
// acknowledged.
func TestLogWriteENOSPC(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		inj := fsfake.NewInjector(nil, seed)
		opts := persist.OnDisk(persist.Options{Dir: t.TempDir(), Fsync: persist.FsyncInterval, SnapshotBytes: -1}, inj)
		st, rt := persist.OpenInt64Store(t, opts), stm.New()
		// The segment's first write is its header; one of the next few
		// writes runs out of space.
		inj.Arm(fsfake.Write, 2, 6, syscall.ENOSPC)
		var ws persist.WriteScratch
		acked := map[int64]int64{}
		var serr error
		for k := int64(0); k < 100 && serr == nil; k++ {
			persist.LogTx(t, rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, k, k*10) })
			if serr = st.Sync(); serr == nil {
				acked[k] = k * 10
			}
		}
		if !errors.Is(serr, syscall.ENOSPC) {
			t.Fatalf("seed %d: Sync returned %v, want ENOSPC", seed, serr)
		}
		err := persist.WriteTx(rt, &ws, func(tx *stm.Tx) { st.LogPut(tx, -1, -1) })
		for _, err := range []error{err, st.Err(), st.Sync(), st.Sync(), st.Close()} {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("seed %d: after the failed write: %v, want ENOSPC", seed, err)
			}
		}
		st = persist.OpenInt64Store(t, persist.Options{Dir: opts.Dir})
		got := map[int64]int64{}
		for _, kv := range st.TakeRecovered() {
			got[kv.Key] = kv.Val
		}
		st.Close()
		for k, v := range acked {
			if got[k] != v {
				t.Fatalf("seed %d: acknowledged key %d recovered as %d, want %d", seed, k, got[k], v)
			}
		}
	}
}
