package stm

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/alloctest"
)

// hookCounter is a long-lived hook target of the kind product code
// registers: both hooks add the payload's value to a running sum.
type hookCounter struct{ committed, published uint64 }

func (c *hookCounter) Committed(arg unsafe.Pointer) { c.committed += *(*uint64)(arg) }

func (c *hookCounter) Published(_ uint64, arg unsafe.Pointer) { c.published += *(*uint64)(arg) }

// TestHookAllocBudget pins the point of the {target, arg} registration
// form: a writing transaction that registers and runs one commit hook and
// one publish hook allocates nothing.
func TestHookAllocBudget(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	rt := New()
	var c cell
	target := &hookCounter{}
	payload := new(uint64)
	*payload = 1
	body := func(tx *Tx) error {
		c.v.Store(tx, &c.orec, c.v.Load(tx, &c.orec)+1)
		tx.OnPublish(target, unsafe.Pointer(payload))
		tx.OnCommit(target, unsafe.Pointer(payload))
		return nil
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() { _ = rt.Atomic(body) })
	if allocs != 0 {
		t.Fatalf("registering and running a commit and a publish hook allocates %.2f/txn, budget 0", allocs)
	}
	// AllocsPerRun adds one warm-up call.
	if target.committed != runs+1 || target.published != runs+1 {
		t.Fatalf("hooks ran %d/%d times, want %d each", target.committed, target.published, runs+1)
	}
}

// TestIdleDescriptorDropsHookPayloads: a descriptor parked in the pool
// (where it may idle for as long as the runtime lives) must not keep the
// targets and payloads of its last transaction reachable, whether that
// transaction committed or rolled back.
func TestIdleDescriptorDropsHookPayloads(t *testing.T) {
	rt := New()
	var c cell
	target := &hookCounter{}
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		err  error
	}{{"commit", nil}, {"rollback", boom}} {
		t.Run(tc.name, func(t *testing.T) {
			collected := make(chan struct{})
			func() {
				payload := new(uint64)
				runtime.SetFinalizer(payload, func(*uint64) { close(collected) })
				err := rt.Atomic(func(tx *Tx) error {
					c.v.Store(tx, &c.orec, 1)
					tx.OnPublish(target, unsafe.Pointer(payload))
					tx.OnCommit(target, unsafe.Pointer(payload))
					return tc.err
				})
				if !errors.Is(err, tc.err) {
					t.Fatalf("Atomic = %v, want %v", err, tc.err)
				}
			}()
			// The finalizer runs on its own goroutine some time after the
			// collection that finds the payload unreachable.
			for i := 0; i < 50; i++ {
				runtime.GC()
				select {
				case <-collected:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Fatal("an idle descriptor still pins the payload of its last hook registrations")
		})
	}
}

// TestDroppedDescriptorsCollectable runs rounds of one transaction that
// writes 4096 cells, each round followed by two GC cycles: the first
// moves the pool's idle descriptor to its victim cache, the second drops
// it, so every round's transaction runs on a new descriptor. Each
// dropped descriptor, with its 4096-entry undo log and acquire list,
// must become unreachable, and the commits it counted must stay in
// Stats.
func TestDroppedDescriptorsCollectable(t *testing.T) {
	const rounds = 20
	rt := New()
	var created, collected atomic.Int64
	newTx := rt.pool.New
	rt.pool.New = func() any {
		tx := newTx()
		created.Add(1)
		runtime.SetFinalizer(tx.(*Tx), func(*Tx) { collected.Add(1) })
		return tx
	}
	cells := newCells(4096)
	for i := 0; i < rounds; i++ {
		if err := cells.bumpAll(rt); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
	}
	// Finalizers run on their own goroutine some time after the
	// collection that finds their object unreachable.
	for i := 0; i < 50 && collected.Load() < created.Load(); i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got, want := collected.Load(), created.Load(); got != want || want < rounds {
		t.Errorf("%d of %d dropped descriptors collected, want all of at least %d", got, want, rounds)
	}
	if got := rt.Stats().Commits; got != rounds {
		t.Errorf("Stats().Commits = %d, want %d", got, rounds)
	}
}
