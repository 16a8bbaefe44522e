package stm

import (
	"fmt"
	"testing"
)

// cellArray builds n independently guarded transactional counters.
type cellArray struct {
	cells []struct {
		orec Orec
		v    U64
	}
}

func newCells(n int) *cellArray {
	a := &cellArray{}
	a.cells = make([]struct {
		orec Orec
		v    U64
	}, n)
	return a
}

// bumpAll loads and stores every cell in one transaction. The
// load-then-store pattern puts every orec in both the read set and the
// acquire list, so commit-time validation settles each read on the
// transaction's ownership of its orec.
func (a *cellArray) bumpAll(rt *Runtime) error {
	return rt.Atomic(func(tx *Tx) error {
		for i := range a.cells {
			c := &a.cells[i]
			c.v.Store(tx, &c.orec, c.v.Load(tx, &c.orec)+1)
		}
		return nil
	})
}

// TestLargeWriteSetCommit drives a write set of 128 read-then-written
// cells through commit and checks the committed state, including after
// an intervening rollback.
func TestLargeWriteSetCommit(t *testing.T) {
	const n = 128
	rt := New()
	a := newCells(n)
	for round := uint64(1); round <= 3; round++ {
		if err := a.bumpAll(rt); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range a.cells {
			if got := a.cells[i].v.Raw(); got != round {
				t.Fatalf("round %d: cell %d = %d", round, i, got)
			}
		}
	}
	// A user error rolls the whole batch back, restoring every orec's
	// pre-acquire word; the next commit must read and validate against
	// those words.
	wantErr := fmt.Errorf("boom")
	err := rt.Atomic(func(tx *Tx) error {
		for i := range a.cells {
			c := &a.cells[i]
			c.v.Store(tx, &c.orec, 99)
		}
		return wantErr
	})
	if err != wantErr {
		t.Fatalf("Atomic returned %v, want user error", err)
	}
	if err := a.bumpAll(rt); err != nil {
		t.Fatal(err)
	}
	for i := range a.cells {
		if got := a.cells[i].v.Raw(); got != 4 {
			t.Fatalf("after rollback: cell %d = %d, want 4", i, got)
		}
	}
}

// BenchmarkLargeWriteSetCommit reads and writes every cell in one
// transaction, so commit validation checks len(cells) reads of orecs the
// transaction owns. Each check is one load and one compare, so the cost
// per cell must stay flat as the write set grows.
// TestStaleReadThenWriteAborts pins what commit validation relies on
// when it accepts a read of an orec the transaction owns: acquire
// refuses an orec committed since the transaction started. A reads a
// cell, B commits an increment of it, and only then does A write it.
// A must abort at that acquire and retry, so both increments land;
// were acquire to take the orec over, A's read would pass validation
// on ownership and B's increment would be lost.
func TestStaleReadThenWriteAborts(t *testing.T) {
	rt := New()
	var c struct {
		orec Orec
		v    U64
	}
	attempts := 0
	err := rt.Atomic(func(tx *Tx) error {
		attempts++
		v := c.v.Load(tx, &c.orec)
		if attempts == 1 {
			done := make(chan error)
			go func() {
				done <- rt.Atomic(func(tx *Tx) error {
					c.v.Store(tx, &c.orec, c.v.Load(tx, &c.orec)+1)
					return nil
				})
			}()
			if err := <-done; err != nil {
				return err
			}
		}
		c.v.Store(tx, &c.orec, v+1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.v.Raw(); got != 2 {
		t.Fatalf("cell = %d after two increments, want 2", got)
	}
	if attempts != 2 {
		t.Fatalf("A ran %d attempts, want 2 (abort at the write, then commit)", attempts)
	}
	if s := rt.Stats(); s.Aborts != 1 || s.AbortsValidate != 1 || s.Commits != 2 {
		t.Fatalf("stats %+v, want 1 validate abort and 2 commits", s)
	}
}

func BenchmarkLargeWriteSetCommit(b *testing.B) {
	for _, n := range []int{8, 32, 128, 512, 2048} {
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			rt := New()
			a := newCells(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.bumpAll(rt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cell")
		})
	}
}
