package skiphash_test

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/skiphash"
)

func openDurable(tb testing.TB, cfg skiphash.Config) *skiphash.Map[int64, int64] {
	tb.Helper()
	m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	return m
}

// BenchmarkRecover prices a reopen of 2x10^5 live keys inserted in
// random order: time, bytes and objects per recovery, the node per key
// the bulk load links included. "wal" recovers from the log alone;
// "snapshot+wal" from a snapshot of the keys plus a log tail that removes
// 2.5x10^4 of them and inserts as many fresh ones.
func BenchmarkRecover(b *testing.B) {
	const keys, tail = 200_000, 25_000
	for _, bc := range []struct {
		name     string
		snapshot bool
	}{{"wal", false}, {"snapshot+wal", true}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := skiphash.Config{Durability: &skiphash.Durability{
				Dir: b.TempDir(), Fsync: skiphash.FsyncNone, SnapshotBytes: -1,
			}}
			perm := rand.New(rand.NewPCG(1, 2)).Perm(keys + tail)
			m := openDurable(b, cfg)
			for _, k := range perm[:keys] {
				m.Insert(int64(k), int64(k))
			}
			if bc.snapshot {
				if err := m.Snapshot(); err != nil {
					b.Fatal(err)
				}
				for i, k := range perm[keys:] {
					m.Remove(int64(perm[i]))
					m.Insert(int64(k), int64(k))
				}
			}
			m.Close()
			// One untimed reopen: it deletes the segments the snapshot
			// covers, so every timed one reads the same directory.
			openDurable(b, cfg).Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := openDurable(b, cfg)
				b.StopTimer()
				if got := m.SizeSlow(); got != keys {
					b.Fatalf("recovered %d keys, want %d", got, keys)
				}
				m.Close()
				b.StartTimer()
			}
		})
	}
}

func assertMatchesModel(t *testing.T, m *skiphash.Map[int64, int64], model map[int64]int64, universe int64) {
	t.Helper()
	for k := int64(0); k < universe; k++ {
		v, ok := m.Lookup(k)
		mv, mok := model[k]
		if ok != mok || (ok && v != mv) {
			t.Fatalf("key %d: recovered (%d,%v), model (%d,%v)", k, v, ok, mv, mok)
		}
	}
	n := 0
	for range m.All() {
		n++
	}
	if n != len(model) {
		t.Fatalf("recovered size %d, model %d", n, len(model))
	}
}

// TestDurableSnapshotReplayProperty is the recovery property test:
// under a randomized workload with snapshots interleaved at arbitrary
// points (and writers running concurrently with them), every
// close-and-reopen cycle must reproduce the sequential model exactly.
func TestDurableSnapshotReplayProperty(t *testing.T) {
	const universe = 256
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		rng := rand.New(rand.NewPCG(seed, 0xd0))
		dir := t.TempDir()
		cfg := skiphash.Config{Durability: &skiphash.Durability{
			Dir: dir, SegmentBytes: 1 << 12, SnapshotBytes: -1,
		}}
		model := map[int64]int64{}
		for cycle := 0; cycle < 4; cycle++ {
			m := openDurable(t, cfg)
			assertMatchesModel(t, m, model, universe)
			// Background writer on disjoint high keys exercises
			// snapshot-while-writing; its committed ops are replayed into
			// the model after it joins.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			bgDone := make(map[int64]int64)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int64(0); i < 3000; i++ {
					select {
					case <-stop:
						return
					default:
					}
					k := universe + (i % 64)
					m.Put(k, i)
					bgDone[k] = i
				}
			}()
			ops := 400 + int(rng.Uint64()%400)
			for i := 0; i < ops; i++ {
				k := int64(rng.Uint64() % universe)
				switch rng.Uint64() % 5 {
				case 0, 1:
					if m.Insert(k, int64(i)) {
						model[k] = int64(i)
					}
				case 2:
					if m.Remove(k) {
						delete(model, k)
					}
				case 3:
					m.Put(k, int64(i))
					model[k] = int64(i)
				case 4:
					if err := m.Snapshot(); err != nil {
						t.Fatalf("seed %d cycle %d: Snapshot: %v", seed, cycle, err)
					}
				}
			}
			close(stop)
			wg.Wait()
			for k, v := range bgDone {
				model[k] = v
			}
			m.Close()
		}
		// Final audit including the background keys.
		m := openDurable(t, cfg)
		assertMatchesModel(t, m, model, universe+64)
		m.Close()
	}
}

// TestDurableCrashAlwaysLosesNothing: with FsyncAlways, a simulated
// process crash after acknowledged operations loses none of them.
func TestDurableCrashAlwaysLosesNothing(t *testing.T) {
	dir := t.TempDir()
	cfg := skiphash.Config{Durability: &skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncAlways}}
	m := openDurable(t, cfg)
	model := map[int64]int64{}
	rng := rand.New(rand.NewPCG(3, 9))
	for i := 0; i < 500; i++ {
		k := int64(rng.Uint64() % 128)
		if rng.Uint64()&1 == 0 {
			m.Put(k, int64(i))
			model[k] = int64(i)
		} else if m.Remove(k) {
			delete(model, k)
		}
	}
	if err := m.SimulateCrash(); err != nil {
		t.Fatalf("SimulateCrash: %v", err)
	}
	m.Close()
	m2 := openDurable(t, cfg)
	defer m2.Close()
	assertMatchesModel(t, m2, model, 128)
}

// ExampleOpen is the open, write, crash, reopen loop. Config.Durability
// turns Open into open-or-recover; FsyncAlways group-commits, so every
// update is fsynced when it returns and a hard crash loses nothing
// acknowledged.
func ExampleOpen() {
	dir := must(os.MkdirTemp("", "skiphash-example-*"))
	defer os.RemoveAll(dir)
	cfg := skiphash.Config{Durability: &skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncAlways}}
	m := must(skiphash.Open[int64, string](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.StringCodec()))
	m.Insert(1, "ares")
	m.Insert(2, "boreas")
	// A batch is one WAL record: recovery sees both writes or neither.
	_ = m.Atomic(func(op *skiphash.Txn[int64, string]) error {
		op.Insert(3, "chronos")
		op.Put(1, "apollo")
		return nil
	})
	m.Remove(2)
	// A snapshot bounds replay; the insert after it lives only in the
	// WAL tail.
	must(0, m.Snapshot())
	m.Insert(4, "demeter")
	// Drop what is buffered and log nothing more, leaving the files as
	// a kill would.
	must(0, m.SimulateCrash())
	m.Close()

	// Reopen: the newest snapshot, then the newer WAL records in
	// commit-stamp order.
	m = must(skiphash.Open[int64, string](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.StringCodec()))
	defer m.Close()
	for k, v := range m.All() {
		fmt.Println(k, v)
	}
	// Output:
	// 1 apollo
	// 3 chronos
	// 4 demeter
}

// TestDurableBatchAtomicity: atomic batches are single WAL records, so recovery — even from a torn tail — sees each batch
// entirely or not at all.
func TestDurableBatchAtomicity(t *testing.T) {
	dir := t.TempDir()
	// FsyncNone with a fast write-out: records reach the file but stay
	// unsynced, so the torn crash below has a real tail to cut (the tear
	// is bounded by the fsync horizon).
	cfg := skiphash.Config{Durability: &skiphash.Durability{
		Dir: dir, Fsync: skiphash.FsyncNone, FsyncEvery: 2 * time.Millisecond,
	}}
	s, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		t.Fatal(err)
	}
	const half = int64(1 << 20)
	for i := int64(0); i < 300; i++ {
		i := i
		_ = s.Atomic(func(op *skiphash.Txn[int64, int64]) error {
			op.Insert(i, i)
			op.Insert(i+half, i)
			return nil
		})
	}
	st, ok := s.Persister().(*persist.Store[int64, int64])
	if !ok {
		t.Fatal("persister is not the store")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if stats := st.Stats(); stats.FlushedBytes == stats.AppendedBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("records never reached the file")
		}
		time.Sleep(time.Millisecond)
	}
	// Tear the log mid-record: batches are single records, so the cut
	// may drop trailing batches but can never split one.
	if err := st.SimulateTornCrash(13); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		t.Fatalf("recovery after torn crash: %v", err)
	}
	defer s2.Close()
	recovered := 0
	for i := int64(0); i < 300; i++ {
		v1, ok1 := s2.Lookup(i)
		v2, ok2 := s2.Lookup(i + half)
		if ok1 != ok2 {
			t.Fatalf("batch %d recovered torn: low=%v high=%v", i, ok1, ok2)
		}
		if ok1 {
			if v1 != i || v2 != i {
				t.Fatalf("batch %d recovered wrong values: %d %d", i, v1, v2)
			}
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("torn tail dropped every batch")
	}
}

// TestDurableCorruptionRejected: a damaged WAL makes Open fail with an
// error matching skiphash.ErrCorrupt, never a silently wrong map.
func TestDurableCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := skiphash.Config{Durability: &skiphash.Durability{Dir: dir}}
	m := openDurable(t, cfg)
	for i := int64(0); i < 200; i++ {
		m.Insert(i, i)
	}
	m.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) == 0 {
		t.Fatal("no WAL segments on disk")
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
	if !errors.Is(err, skiphash.ErrCorrupt) {
		t.Fatalf("Open on corrupt WAL: %v, want ErrCorrupt", err)
	}
}

// TestDurabilitySurfaceOnPlainMaps: the durability verbs fail with
// ErrNotDurable on maps built without Config.Durability.
func TestDurabilitySurfaceOnPlainMaps(t *testing.T) {
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	defer m.Close()
	if err := m.Snapshot(); !errors.Is(err, skiphash.ErrNotDurable) {
		t.Fatalf("Snapshot on plain map: %v", err)
	}
	if err := m.Sync(); !errors.Is(err, skiphash.ErrNotDurable) {
		t.Fatalf("Sync on plain map: %v", err)
	}
	if err := m.SimulateCrash(); !errors.Is(err, skiphash.ErrNotDurable) {
		t.Fatalf("SimulateCrash on plain map: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close on plain map: %v", err)
	}
}

// TestDurableCloseReportsUnlogged: a commit the log never took (here
// the engine is closed behind the map's back) is reported by the map's
// own Close, and by every Close after it.
func TestDurableCloseReportsUnlogged(t *testing.T) {
	m := openDurable(t, skiphash.Config{Durability: &skiphash.Durability{Dir: t.TempDir()}})
	if err := m.Persister().Close(); err != nil {
		t.Fatalf("engine Close: %v", err)
	}
	m.Insert(1, 1)
	err := m.Close()
	if err == nil || !strings.Contains(err.Error(), "not logged") {
		t.Fatalf("Close = %v after a commit the log never took, want a not-logged error", err)
	}
	if again := m.Close(); again != err {
		t.Fatalf("second Close = %v, want %v", again, err)
	}
}

// TestRetiredLayoutRefused: a directory in the per-shard layout that
// isolated-shard maps used to write (a "shards" meta file and one engine
// directory per shard) is refused by Open with an error
// naming the layout, and left byte-for-byte as it was — the single-log
// engine would otherwise start a fresh log beside the old data and drop
// it at its next snapshot.
func TestRetiredLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"shards":              "4 0\n",
		"shard-000/wal-1.seg": "not a log this version reads",
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirListing(t, dir)
	cfg := skiphash.Config{Durability: &skiphash.Durability{Dir: dir}}
	m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err == nil {
		m.Close()
		t.Fatal("Open opened a directory in the retired per-shard layout")
	}
	if !strings.Contains(err.Error(), "per-shard") || !strings.Contains(err.Error(), "shard-000/") {
		t.Fatalf("error %q does not name the retired layout", err)
	}
	if after := dirListing(t, dir); after != before {
		t.Fatalf("Open touched the directory:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// dirListing renders every entry under dir with its mode and, for files,
// its contents, in walk order.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		info, err := d.Info()
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s %v", rel, info.Mode())
		if !d.IsDir() {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, " %q", data)
		}
		b.WriteByte('\n')
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}
