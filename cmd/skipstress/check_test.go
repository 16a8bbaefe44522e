package main

import (
	"testing"
	"time"

	"repro/skiphash"
)

// TestCheckSmoke runs the -check mode in process on the map New builds.
func TestCheckSmoke(t *testing.T) {
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	defer m.Close()
	if err := runCheck(m, 4, 500*time.Millisecond, 1, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCrashSmoke runs six -crash cycles in process — both flavors and a
// clean-Close cycle.
func TestCrashSmoke(t *testing.T) {
	if err := runCrash(6, 2, 256, 1, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
