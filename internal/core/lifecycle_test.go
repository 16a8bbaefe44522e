package core

import (
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/thashmap"
)

func newLifecycleMap(cfg Config) *Map[int64, int64] {
	cfg.Buckets = 1021
	return New[int64, int64](func(a, b int64) bool { return a < b }, thashmap.Hash64, cfg)
}

// pooledInsert and pooledRemove run one update on a pooled transient
// handle. Map.Atomic is the pool's entry point beside the iterators (the
// per-operation convenience methods live on the shard front), so it is
// how these tests keep driving borrow, Recycle and the orphan queue.
func pooledInsert(m *Map[int64, int64], k int64) {
	_ = m.Atomic(func(op *Txn[int64, int64]) error { op.Insert(k, k); return nil })
}

func pooledRemove(m *Map[int64, int64], k int64) {
	_ = m.Atomic(func(op *Txn[int64, int64]) error { op.Remove(k); return nil })
}

// TestHandleCloseDeregisters is the regression test for the unbounded
// handle registry: handles must leave Map.handles on Close, and their
// counters must survive in RangeStats via the retired accumulator.
func TestHandleCloseDeregisters(t *testing.T) {
	m := newLifecycleMap(Config{})
	const n = 64
	handles := make([]*Handle[int64, int64], n)
	for i := range handles {
		handles[i] = m.NewHandle()
	}
	if got := m.HandleCount(); got != n {
		t.Fatalf("HandleCount = %d, want %d", got, n)
	}
	handles[0].Insert(1, 1)
	handles[0].Range(0, 10, nil)
	before := m.RangeStats()
	if before.FastCommits == 0 && before.SlowCommits == 0 {
		t.Fatalf("range did not count: %+v", before)
	}
	for _, h := range handles {
		h.Close()
		h.Close() // idempotent
	}
	if got := m.HandleCount(); got != 0 {
		t.Fatalf("HandleCount after Close = %d, want 0", got)
	}
	if after := m.RangeStats(); after != before {
		t.Errorf("RangeStats changed across Close: before %+v after %+v", before, after)
	}
}

// TestCloseRoutesBufferedRemovals checks that a closed handle's buffered
// removals reach the orphan queue and are reclaimed by Quiesce, instead
// of staying stitched forever as they did when Close did not exist.
func TestCloseRoutesBufferedRemovals(t *testing.T) {
	m := newLifecycleMap(Config{RemovalBufferSize: 64})
	h := m.NewHandle()
	const keys = 16 // fewer than the buffer size, so nothing auto-flushes
	for k := int64(0); k < keys; k++ {
		h.Insert(k, k)
	}
	for k := int64(0); k < keys; k++ {
		h.Remove(k)
	}
	if stitched, live := m.StitchedSlow(), m.SizeSlow(); stitched-live != keys {
		t.Fatalf("backlog before Close = %d, want %d", stitched-live, keys)
	}
	h.Close()
	if got := m.OrphanBacklog(); got != keys {
		t.Fatalf("orphan queue after Close = %d, want %d", got, keys)
	}
	m.Quiesce()
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Fatalf("invariants after Quiesce: %v", err)
	}
	if stitched, live := m.StitchedSlow(), m.SizeSlow(); stitched != live {
		t.Errorf("stitched %d != live %d after Quiesce", stitched, live)
	}
	if s := m.MaintenanceStats(); s.Orphaned != keys || s.Adopted != keys || s.DrainedNodes != keys {
		t.Errorf("maintenance stats = %+v, want %d orphaned/adopted/drained", s, keys)
	}
}

// TestPooledConvenienceChurn is the leak-class regression for the
// convenience path: heavy remove/insert churn through pooled handles —
// with GC emptying the pools mid-run — must leave the registry empty
// and, after quiescence, no logically-deleted node stitched. With
// -short it still runs well past the removal buffer and orphan
// thresholds; the full edition covers >10^6 cycles.
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
	if got := m.HandleCount(); got != 0 {
		t.Errorf("handle registry = %d after convenience churn, want 0", got)
	}
	m.Quiesce()
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Errorf("invariants: %v", err)
	}
	if stitched, live := m.StitchedSlow(), m.SizeSlow(); stitched != live {
		t.Errorf("stitched %d != live %d: logically-deleted nodes left stitched", stitched, live)
	}
}

// TestMaintenanceDrainsWithoutQuiesce checks the inline drain: on the
// zero Config, orphaned removals are reclaimed by the operations that
// push the orphan queue to its threshold, without anyone calling
// Quiesce or Close.
func TestMaintenanceDrainsWithoutQuiesce(t *testing.T) {
	m := newLifecycleMap(Config{})
	const keys = 400
	for k := int64(0); k < keys; k++ {
		pooledInsert(m, k)
	}
	for k := int64(0); k < keys; k++ {
		pooledRemove(m, k)
	}
	backlog := m.OrphanBacklog()
	if backlog >= orphanDrainThreshold {
		t.Errorf("orphan backlog %d, want < %d", backlog, orphanDrainThreshold)
	}
	if s := m.MaintenanceStats(); s.DrainedNodes == 0 {
		t.Errorf("nothing drained inline: %+v", s)
	}
	// The queued nodes are the only ones still stitched.
	if stitched, live := m.StitchedSlow(), m.SizeSlow(); stitched-live != backlog {
		t.Errorf("stitched %d - live %d != orphan backlog %d", stitched, live, backlog)
	}
	if err := m.CheckInvariants(CheckOptions{AllowDeleted: true}); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

// TestQuiesceConcurrentWithOperations is the data-race regression for
// the Quiesce/FlushRemovals footgun: flushing a handle's buffer from
// another goroutine while the owner keeps removing must be safe (the
// race detector guards the handoff) and must lose no node.
func TestQuiesceConcurrentWithOperations(t *testing.T) {
	m := newLifecycleMap(Config{RemovalBufferSize: 8})
	h := m.NewHandle()
	defer h.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(11, 13))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := int64(rng.Uint64() % 128)
			if rng.Uint64()&1 == 0 {
				h.Insert(k, k)
			} else {
				h.Remove(k)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		m.Quiesce()
	}
	close(stop)
	wg.Wait()
	m.Quiesce()
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Errorf("invariants: %v", err)
	}
	if stitched, live := m.StitchedSlow(), m.SizeSlow(); stitched != live {
		t.Errorf("stitched %d != live %d after concurrent Quiesce churn", stitched, live)
	}
}

// TestExplicitHandleTurnover churns explicit NewHandle/Close cycles
// across goroutines: the registry must track only live handles and the
// final audit must find no stranded removals.
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
	if got := m.HandleCount(); got != 0 {
		t.Errorf("handle registry = %d after turnover, want 0", got)
	}
	m.Quiesce()
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Errorf("invariants: %v", err)
	}
	if stitched, live := m.StitchedSlow(), m.SizeSlow(); stitched != live {
		t.Errorf("stitched %d != live %d after handle turnover", stitched, live)
	}
}

// TestCloseIdempotentConcurrentWithQuiesce is the regression test for
// the Close contract: concurrent Close calls, racing Quiesce calls and
// in-flight operations must all return only after teardown completed,
// and no call may observe a partially torn-down map. (The sharded
// frontend's durability flush rides on the same contract; see
// shard.TestShardedCloseConcurrent.)
func TestCloseIdempotentConcurrentWithQuiesce(t *testing.T) {
	m := newLifecycleMap(Config{RemovalBufferSize: 8})
	for k := int64(0); k < 256; k++ {
		pooledInsert(m, k)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			m.Close()
			if !m.Closed() {
				t.Error("Close returned with Closed() == false")
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			m.Quiesce()
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			<-start
			for k := base; k < base+64; k++ {
				pooledRemove(m, k%256)
			}
		}(int64(i) * 64)
	}
	close(start)
	wg.Wait()
	m.Close() // still idempotent afterwards
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Fatalf("invariants after Close: %v", err)
	}
	if stitched, live := m.StitchedSlow(), m.SizeSlow(); stitched != live {
		t.Errorf("stitched %d != live %d after Close", stitched, live)
	}
}

// TestRemovedNodeCollectable is the regression test for pooled
// transaction descriptors pinning dead nodes: once a removed node has
// been unstitched and the removal buffer drained, nothing may keep it
// reachable — in particular not the commit-hook registration (handle,
// node) the removing transaction made, which used to sit in the idle
// descriptor's hook list until some later transaction registered a hook
// of its own. The descriptor stays parked in the runtime's pool for the
// whole check.
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
	h.FlushRemovals() // unstitches the node and zeroes the buffer slot
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
