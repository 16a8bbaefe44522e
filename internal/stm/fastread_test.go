package stm

import (
	"sync"
	"testing"
)

// mustStore commits one transactional store of v into c.
func mustStore(t *testing.T, rt *Runtime, c *cell, v uint64) {
	t.Helper()
	if err := rt.Atomic(func(tx *Tx) error {
		c.v.Store(tx, &c.orec, v)
		return nil
	}); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
}

func TestFastReadHitSeesCommittedValue(t *testing.T) {
	t.Run("hwclock", testFastReadHitSeesCommittedValue)
}

func testFastReadHitSeesCommittedValue(t *testing.T) {
	rt := New()
	var c cell
	mustStore(t, rt, &c, 42)

	s, ok := c.orec.Sample()
	if !ok {
		t.Fatal("Sample failed on a quiescent orec")
	}
	got := c.v.Raw()
	if !s.Valid() {
		t.Fatal("Valid failed with no concurrent writer")
	}
	if got != 42 {
		t.Fatalf("fast read = %d, want 42", got)
	}
}

func TestFastReadSampleFailsOnLockedOrec(t *testing.T) {
	rt := New()
	var c cell
	if err := rt.Atomic(func(tx *Tx) error {
		c.v.Store(tx, &c.orec, 1) // acquires c.orec for this attempt
		if _, ok := c.orec.Sample(); ok {
			t.Error("Sample succeeded on a locked orec")
		}
		return nil
	}); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
}

func TestFastReadValidDetectsConcurrentCommit(t *testing.T) {
	rt := New()
	var c cell
	mustStore(t, rt, &c, 1)

	s, ok := c.orec.Sample()
	if !ok {
		t.Fatal("Sample failed on a quiescent orec")
	}
	mustStore(t, rt, &c, 2) // commits between Sample and Valid
	if s.Valid() {
		t.Error("Valid accepted an orec a writer committed to mid-read")
	}
	// A fresh sample sees the new version and validates.
	s, ok = c.orec.Sample()
	if !ok || !s.Valid() {
		t.Error("fresh sample rejected a quiescent orec after a commit")
	}
}

func TestFastReadZeroSampleInvalid(t *testing.T) {
	var s OrecSample
	if s.Valid() {
		t.Error("zero OrecSample validated")
	}
}

func TestFastReadCountersSumIntoStats(t *testing.T) {
	rt := New()
	before := rt.Stats()

	// More readers than stripes, so some stripes are shared.
	var wg sync.WaitGroup
	const readers, per = 1<<stripeBits + 5, 7
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				rt.LocalCounters().FastReadHit()
			}
			rt.LocalCounters().FastReadFallback()
		}()
	}
	wg.Wait()

	d := rt.Stats().Sub(before)
	if d.FastReadHits != readers*per {
		t.Errorf("FastReadHits = %d, want %d", d.FastReadHits, readers*per)
	}
	if d.FastReadFallbacks != readers {
		t.Errorf("FastReadFallbacks = %d, want %d", d.FastReadFallbacks, readers)
	}
	if d.Commits != 0 {
		t.Errorf("fast-read counting committed %d transactions", d.Commits)
	}
}
