package stm

import (
	"errors"
	"sync"
	"testing"
)

func TestAcquireWithoutWrite(t *testing.T) {
	rt := New()
	var c cell
	c.v.Init(5)
	// Acquire alone must bump the version on commit, invalidating
	// concurrent optimistic readers (this is what makes removals "own
	// everything they read").
	before := c.orec.Version()
	if err := rt.Atomic(func(tx *Tx) error {
		tx.Acquire(&c.orec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if c.orec.Locked() {
		t.Error("orec still locked after commit")
	}
	if got := c.orec.Version(); got <= before {
		t.Errorf("version %d not advanced past %d by Acquire-only commit", got, before)
	}
	if got := c.v.Raw(); got != 5 {
		t.Errorf("value = %d, want untouched 5", got)
	}
}

func TestAcquireRollbackRestoresVersion(t *testing.T) {
	rt := New()
	var c cell
	before := c.orec.Version()
	_ = rt.Atomic(func(tx *Tx) error {
		tx.Acquire(&c.orec)
		return errors.New("rollback")
	})
	if got := c.orec.Version(); got != before {
		t.Errorf("version = %d, want %d restored by rollback", got, before)
	}
	if c.orec.Locked() {
		t.Error("orec leaked a lock")
	}
}

func TestStrictClockRejectsEqualVersion(t *testing.T) {
	t.Run("strict aborts", testStrictClockRejectsEqualVersion)
}

func testStrictClockRejectsEqualVersion(t *testing.T) {
	// Nanosecond ticks are not unique, so a reader must abort on
	// version == start. Construct the situation by hand.
	rt := New()
	var c cell
	err := rt.TryOnce(func(tx *Tx) error {
		c.orec.store(versionWord(tx.Start()))
		_ = c.v.Load(tx, &c.orec)
		return nil
	})
	if !errors.Is(err, ErrAborted) {
		t.Errorf("read of ver==start: err = %v, want ErrAborted", err)
	}
}

func TestFutureVersionAborts(t *testing.T) {
	rt := New()
	var c cell
	err := rt.TryOnce(func(tx *Tx) error {
		// Version far in the future: the read must abort (no
		// timestamp extension in this configuration).
		c.orec.store(versionWord(tx.Start() + 1_000_000))
		_ = c.v.Load(tx, &c.orec)
		return nil
	})
	if !errors.Is(err, ErrAborted) {
		t.Errorf("err = %v, want ErrAborted", err)
	}
}

func TestTxIDsUniqueAcrossDescriptors(t *testing.T) {
	rt := New()
	const goroutines = 16
	const perG = 200
	ids := make(chan uint64, goroutines*perG)
	var wg sync.WaitGroup
	var c cell
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var id uint64
				_ = rt.Atomic(func(tx *Tx) error {
					id = tx.id // record outside: aborted attempts retry fn
					c.v.Store(tx, &c.orec, 1)
					return nil
				})
				// Exactly one send per committed transaction, so the
				// buffered channel can never block a sender.
				ids <- id
			}
		}()
	}
	wg.Wait()
	close(ids)
	// Committed attempts must all carry distinct lock-word IDs: a
	// duplicate would let one transaction mistake another's lock for
	// its own.
	seen := make(map[uint64]bool, goroutines*perG)
	for id := range ids {
		if seen[id] {
			t.Fatalf("transaction ID %d reused", id)
		}
		seen[id] = true
	}
}

func TestCommitValidationCatchesInterleavedWrite(t *testing.T) {
	rt := New()
	var a, b cell
	hold := make(chan struct{})
	proceed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	tries := 0
	go func() {
		defer wg.Done()
		_ = rt.Atomic(func(tx *Tx) error {
			tries++
			_ = a.v.Load(tx, &a.orec) // read a
			if tries == 1 {
				close(hold) // let the interferer write a
				<-proceed
			}
			b.v.Store(tx, &b.orec, 1) // write b (writer path: must validate a)
			return nil
		})
	}()
	<-hold
	_ = rt.Atomic(func(tx *Tx) error {
		a.v.Store(tx, &a.orec, 99)
		return nil
	})
	close(proceed)
	wg.Wait()
	if tries < 2 {
		t.Errorf("transaction committed without revalidating its read set (tries=%d)", tries)
	}
	if got := b.v.Raw(); got != 1 {
		t.Errorf("b = %d, want 1", got)
	}
}
