package skiphash_test

import (
	"math/rand/v2"
	"testing"

	"repro/skiphash"
)

// TestDurableResizeReopen is the reopen-at-another-count property test:
// one WAL survives any geometry. Each cycle interleaves random writes
// with clean closes and reopens at growing and shrinking shard counts
// under FsyncAlways, crashes via SimulateCrash, and reopens at yet
// another count; every reopened map must hold exactly the model's
// contents — every acknowledged write was group-committed, so nothing
// may be lost.
func TestDurableResizeReopen(t *testing.T) {
	const universe = 512
	cfg := skiphash.Config{
		Shards:     2,
		Durability: &skiphash.Durability{Dir: t.TempDir(), Fsync: skiphash.FsyncAlways},
	}
	rng := rand.New(rand.NewPCG(11, 13))
	model := make(map[int64]int64)
	mutate := func(m *skiphash.Map[int64, int64], n int) {
		for i := 0; i < n; i++ {
			k := int64(rng.IntN(universe))
			if rng.IntN(4) == 0 {
				m.Remove(k)
				delete(model, k)
			} else {
				v := rng.Int64()
				m.Put(k, v)
				model[k] = v
			}
		}
	}

	open := func(cycle int) *skiphash.Map[int64, int64] {
		t.Helper()
		m, err := skiphash.OpenSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
		if err != nil {
			t.Fatalf("cycle %d: open at %d shards: %v", cycle, cfg.Shards, err)
		}
		if got := m.Shards(); got != cfg.Shards {
			t.Fatalf("cycle %d: opened at %d shards, want %d", cycle, got, cfg.Shards)
		}
		assertMatchesModel(t, m, model, universe)
		return m
	}

	for cycle, c := range []struct {
		reshapes []int
		reopen   int
	}{
		{[]int{8, 4}, 2},
		{[]int{1, 16}, 4},
		{[]int{2}, 8},
	} {
		m := open(cycle)
		mutate(m, 400)
		for _, n := range c.reshapes {
			m.Close()
			cfg.Shards = n
			m = open(cycle)
			mutate(m, 300)
		}
		if err := m.SimulateCrash(); err != nil {
			t.Fatalf("cycle %d: SimulateCrash: %v", cycle, err)
		}
		m.Close()
		cfg.Shards = c.reopen
	}
	m := open(3) // the reopen after the last cycle
	defer m.Close()
	if err := m.CheckInvariants(skiphash.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedDurableResizeReopen: one WAL orders every shard's
// operations, so a change of geometry needs no durable bookkeeping at
// all — after a reopen at another count and a crash, the log replays
// into whatever geometry the reopening Config asks for.
func TestSharedDurableResizeReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := skiphash.Config{
		Shards:     2,
		Durability: &skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncAlways},
	}
	s, err := skiphash.OpenSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 256; k++ {
		s.Insert(k, k*7)
	}
	s.Close()
	cfg.Shards = 8
	if s, err = skiphash.OpenSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec()); err != nil {
		t.Fatalf("reopen at 8 shards: %v", err)
	}
	for k := int64(256); k < 512; k++ {
		s.Insert(k, k*7)
	}
	if err := s.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	cfg.Shards = 4
	s, err = skiphash.OpenSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	for k := int64(0); k < 512; k++ {
		if v, ok := s.Lookup(k); !ok || v != k*7 {
			t.Fatalf("Lookup(%d) = %d, %v after reopen", k, v, ok)
		}
	}
}

// TestOpenDirReopensSharded: Open and OpenSharded share one directory
// format, in both directions. A directory written through Open — WAL,
// a snapshot, more WAL — reopens at four shards with every key, then at
// two; written further there, it reopens through Open at one shard.
func TestOpenDirReopensSharded(t *testing.T) {
	const universe = 512
	cfg := skiphash.Config{Durability: &skiphash.Durability{Dir: t.TempDir(), SnapshotBytes: -1}}
	rng := rand.New(rand.NewPCG(24, 7))
	model := make(map[int64]int64)
	mutate := func(m *skiphash.Map[int64, int64], n int) {
		for i := 0; i < n; i++ {
			k := int64(rng.IntN(universe))
			if rng.IntN(4) == 0 {
				m.Remove(k)
				delete(model, k)
			} else {
				v := rng.Int64()
				m.Put(k, v)
				model[k] = v
			}
		}
	}

	m := openDurable(t, cfg)
	mutate(m, 600)
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	mutate(m, 300)
	m.Close()

	cfg.Shards = 4
	m, err := skiphash.OpenSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		t.Fatalf("OpenSharded over a directory Open wrote: %v", err)
	}
	if got := m.Shards(); got != 4 {
		t.Fatalf("reopened at %d shards, want 4", got)
	}
	assertMatchesModel(t, m, model, universe)
	mutate(m, 300)
	m.Close()

	cfg.Shards = 2
	if m, err = skiphash.OpenSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec()); err != nil {
		t.Fatalf("reopen at 2 shards: %v", err)
	}
	if got := m.Shards(); got != 2 {
		t.Fatalf("reopened at %d shards, want 2", got)
	}
	assertMatchesModel(t, m, model, universe)
	mutate(m, 300)
	m.Close()

	m = openDurable(t, cfg) // Open ignores cfg.Shards
	defer m.Close()
	if got := m.Shards(); got != 1 {
		t.Fatalf("Open built %d shards, want 1", got)
	}
	assertMatchesModel(t, m, model, universe)
	if err := m.CheckInvariants(skiphash.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}
