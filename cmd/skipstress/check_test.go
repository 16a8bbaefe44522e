package main

import (
	"testing"
	"time"

	"repro/skiphash"
)

// TestCheckSmoke runs the -check mode in process on the two geometries
// CI drives it at: the one-shard map New builds, and four shards.
func TestCheckSmoke(t *testing.T) {
	one := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	four := skiphash.NewSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Shards: 4})
	for _, m := range []*skiphash.Map[int64, int64]{one, four} {
		if err := runCheck(m, 4, 500*time.Millisecond, 1, 0); err != nil {
			t.Fatalf("%d shards: %v", m.Shards(), err)
		}
		m.Close()
	}
}

// TestCrashSmoke runs six -crash cycles in process — both flavors, a
// clean-Close cycle, and opens at shard counts drawn from {1, 2, 4, 8}.
func TestCrashSmoke(t *testing.T) {
	if err := runCrash(6, 2, 256, 1, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
