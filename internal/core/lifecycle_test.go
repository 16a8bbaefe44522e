package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/stm"
	"repro/internal/thashmap"
)

func newLifecycleMap(cfg Config) *Map[int64, int64] {
	cfg.Buckets = 1021
	return New[int64, int64](func(a, b int64) bool { return a < b }, thashmap.Hash64, cfg)
}

// pooledInsert and pooledRemove run one update on a pooled handle.
// Map.Atomic is the pool's entry point beside the iterators (the
// per-operation convenience methods live on the shard front), so it is
// how these tests drive the pool.
func pooledInsert(m *Map[int64, int64], k int64) {
	_ = m.Atomic(func(op *Txn[int64, int64]) error { op.Insert(k, k); return nil })
}

func pooledRemove(m *Map[int64, int64], k int64) {
	_ = m.Atomic(func(op *Txn[int64, int64]) error { op.Remove(k); return nil })
}

// TestRemovalUnstitchesAtCommit checks Figure 4's after_remove on the
// zero Config: with no slow-path range query in flight, every Remove and
// Put leaves no logically deleted node stitched, with no flush call, and
// counts its unstitch in DrainedNodes once it commits (an aborted
// removal counts nothing). With a slow range open, a removed node older
// than it stays stitched on its deferred list until Finish.
func TestRemovalUnstitchesAtCommit(t *testing.T) {
	m := newLifecycleMap(Config{})
	h := m.NewHandle()
	const keys = 64
	for k := int64(0); k < keys; k++ {
		h.Insert(k, k)
	}
	audit := func(when string) {
		t.Helper()
		if stitched, live := m.StitchedSlow(), m.SizeSlow(); stitched != live {
			t.Fatalf("%s: %d stitched, %d live", when, stitched, live)
		}
		if err := m.CheckInvariants(CheckOptions{}); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	for k := int64(0); k < keys; k += 2 {
		before := m.MaintenanceStats().DrainedNodes
		if !h.Remove(k) {
			t.Fatalf("Remove(%d) found the key absent", k)
		}
		audit(fmt.Sprintf("after Remove(%d)", k))
		if !h.Put(k+1, -k) {
			t.Fatalf("Put(%d) replaced nothing", k+1)
		}
		audit(fmt.Sprintf("after Put(%d)", k+1))
		if got := m.MaintenanceStats().DrainedNodes - before; got != 2 {
			t.Fatalf("Remove and Put drained %d nodes, want 2", got)
		}
	}
	before := m.MaintenanceStats().DrainedNodes
	errAbort := errors.New("abort")
	if err := h.Atomic(func(op *Txn[int64, int64]) error { op.Remove(1); return errAbort }); err != errAbort {
		t.Fatalf("Atomic = %v, want the body's error", err)
	}
	if got := m.MaintenanceStats().DrainedNodes; got != before {
		t.Errorf("an aborted removal moved DrainedNodes %d -> %d", before, got)
	}

	var sr *SlowRange[int64, int64]
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		sr = m.BeginSlowRangeTx(tx, h, 0)
		return nil
	})
	h.Remove(1)
	h.Put(3, 3)
	if stitched, live := m.StitchedSlow(), m.SizeSlow(); stitched-live != 2 {
		t.Errorf("with a slow range open: %d stitched, %d live, want 2 deferred", stitched, live)
	}
	if got := deferredKeys(sr.op); !slices.Equal(got, []int64{1, 3}) {
		t.Errorf("deferred list = %v, want [1 3]", got)
	}
	if err := m.CheckInvariants(CheckOptions{AllowDeleted: true}); err != nil {
		t.Fatal(err)
	}
	sr.Finish()
	audit("after Finish")
	if got := m.MaintenanceStats().DrainedNodes - before; got != 2 {
		t.Errorf("Finish drained %d nodes, want 2", got)
	}
}

// TestPooledConvenienceChurn is the leak-class regression for the
// convenience path: heavy remove/insert churn through pooled handles —
// with GC emptying the pools mid-run — must leave no logically-deleted
// node stitched. The full edition covers >10^6 cycles.
func TestPooledConvenienceChurn(t *testing.T) {
	m := newLifecycleMap(Config{})
	goroutines := 8
	iters := 150_000 // ~1.2M operations across goroutines
	if testing.Short() {
		iters = 10_000
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0xc0ffee))
			const universe = 512
			for i := 0; i < iters; i++ {
				k := int64(rng.Uint64() % universe)
				if rng.Uint64()&1 == 0 {
					pooledInsert(m, k)
				} else {
					pooledRemove(m, k)
				}
				if i%4096 == 0 {
					runtime.GC()
				}
			}
		}(uint64(g) + 1)
	}
	wg.Wait()
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Errorf("invariants: %v", err)
	}
	if stitched, live := m.StitchedSlow(), m.SizeSlow(); stitched != live {
		t.Errorf("stitched %d != live %d: logically-deleted nodes left stitched", stitched, live)
	}
}

// TestExplicitHandleTurnover churns explicit NewHandle/Close cycles
// across goroutines: the final audit must find no stranded removals.
func TestExplicitHandleTurnover(t *testing.T) {
	m := newLifecycleMap(Config{})
	const goroutines = 8
	const rounds = 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0xdead))
			for r := 0; r < rounds; r++ {
				h := m.NewHandle()
				const universe = 256
				for i := 0; i < 200; i++ {
					k := int64(rng.Uint64() % universe)
					if rng.Uint64()&1 == 0 {
						h.Insert(k, k)
					} else {
						h.Remove(k)
					}
				}
				h.Close()
			}
		}(uint64(g) + 1)
	}
	wg.Wait()
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Errorf("invariants: %v", err)
	}
	if stitched, live := m.StitchedSlow(), m.SizeSlow(); stitched != live {
		t.Errorf("stitched %d != live %d after handle turnover", stitched, live)
	}
}

// TestRemovedNodeCollectable is the regression test for pooled
// transaction descriptors pinning dead nodes: once a removed node has
// been unstitched, nothing may keep it reachable — in particular not the
// commit-hook registration the removing transaction made, which sits in
// the idle descriptor's hook list until some later transaction registers
// a hook of its own. The descriptor stays parked in the runtime's pool
// for the whole check.
func TestRemovedNodeCollectable(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so which descriptor a transaction runs on is not arranged")
	}
	// One P and no background collection: every transaction below then
	// runs on the same pooled descriptor, so the hook-free batch after
	// the removal — larger than any single removal or unstitch — buries
	// its read, undo and acquire logs (which mention the node too, as
	// any log entry does until it is reused) and only the hook list is
	// left to tell the two behaviours apart.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)

	m := newLifecycleMap(Config{})
	h := m.NewHandle()
	defer h.Close()
	for k := int64(0); k < 8; k++ {
		h.Insert(k, k)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(m.index.prefetch(4), func(*node[int64, int64]) { close(collected) })
	if !h.Remove(4) {
		t.Fatal("Remove(4) found the key absent")
	}
	_ = h.Atomic(func(op *Txn[int64, int64]) error {
		for k := int64(100); k < 164; k++ {
			op.Insert(k, k)
		}
		return nil
	})
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	// The finalizer runs on its own goroutine some time after the
	// collection that finds the node unreachable.
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a removed, unstitched node is still reachable with its transaction's descriptor idle")
}
