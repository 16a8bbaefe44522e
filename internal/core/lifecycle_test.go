package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
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

// TestRemovalUnstitchesAtCommit checks Figure 4's after_remove on the
// zero Config: with no slow-path range query in flight, every Remove and
// Put leaves no logically deleted node stitched, with no flush call, and
// counts its unstitch in DrainedNodes once it commits (an aborted
// removal counts nothing). With a slow range open, a removed node older
// than it stays stitched on its deferred list until Finish.
func TestRemovalUnstitchesAtCommit(t *testing.T) {
	m := newLifecycleMap(Config{})
	const keys = 64
	for k := int64(0); k < keys; k++ {
		m.Insert(k, k)
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
		if !m.Remove(k) {
			t.Fatalf("Remove(%d) found the key absent", k)
		}
		audit(fmt.Sprintf("after Remove(%d)", k))
		if !m.Put(k+1, -k) {
			t.Fatalf("Put(%d) replaced nothing", k+1)
		}
		audit(fmt.Sprintf("after Put(%d)", k+1))
		if got := m.MaintenanceStats().DrainedNodes - before; got != 2 {
			t.Fatalf("Remove and Put drained %d nodes, want 2", got)
		}
	}
	before := m.MaintenanceStats().DrainedNodes
	errAbort := errors.New("abort")
	if err := m.Atomic(func(op *Txn[int64, int64]) error { op.Remove(1); return errAbort }); err != errAbort {
		t.Fatalf("Atomic = %v, want the body's error", err)
	}
	if got := m.MaintenanceStats().DrainedNodes; got != before {
		t.Errorf("an aborted removal moved DrainedNodes %d -> %d", before, got)
	}

	var sr *slowRange[int64, int64]
	_ = m.rt.Atomic(func(tx *stm.Tx) error {
		sr = m.beginSlowRangeTx(tx, 0)
		return nil
	})
	m.Remove(1)
	m.Put(3, 3)
	if stitched, live := m.StitchedSlow(), m.SizeSlow(); stitched-live != 2 {
		t.Errorf("with a slow range open: %d stitched, %d live, want 2 deferred", stitched, live)
	}
	if got := deferredKeys(sr.op); !slices.Equal(got, []int64{1, 3}) {
		t.Errorf("deferred list = %v, want [1 3]", got)
	}
	if err := m.CheckInvariants(CheckOptions{AllowDeleted: true}); err != nil {
		t.Fatal(err)
	}
	sr.finish()
	audit("after Finish")
	if got := m.MaintenanceStats().DrainedNodes - before; got != 2 {
		t.Errorf("Finish drained %d nodes, want 2", got)
	}
}

// TestPooledConvenienceChurn is the leak-class regression for the map's
// methods: heavy remove/insert churn from many goroutines — with GC
// cycles mid-run — must leave no logically-deleted node stitched. The
// full edition covers >10^6 cycles.
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
					m.Insert(k, k)
				} else {
					m.Remove(k)
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

// TestExplicitHandleTurnover churns NewHandle/Close cycles of the
// Handle shim across goroutines: closing a Handle must leave its map
// open, and the final audit must find no stranded removals.
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
	if m.Closed() {
		t.Error("closing a Handle closed its map")
	}
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
	for k := int64(0); k < 8; k++ {
		m.Insert(k, k)
	}
	collected := make(chan struct{})
	n, ok := m.index.getFast(4)
	if !ok || n == nil {
		t.Fatal("getFast(4) found no node")
	}
	runtime.SetFinalizer(n, func(*node[int64, int64]) { close(collected) })
	if !m.Remove(4) {
		t.Fatal("Remove(4) found the key absent")
	}
	_ = m.Atomic(func(op *Txn[int64, int64]) error {
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

// TestNewStartsNoGoroutine pins that no map owns a goroutine, whatever
// its Config asks for: removals reclaim on the callers' own goroutines,
// through point and batch entry points alike.
func TestNewStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	m := newLifecycleMap(Config{Maintenance: true})
	for k := int64(0); k < 400; k++ {
		_ = m.Atomic(func(op *Txn[int64, int64]) error { op.Insert(k, k); return nil })
		_ = m.Atomic(func(op *Txn[int64, int64]) error { op.Remove(k); return nil })
		m.Insert(k, k)
		m.Remove(k)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after building and using a map, want at most %d", got, before)
	}
	m.Close()
}

// TestHandleLifecycle churns the map's point writes beside Atomic
// batches from many goroutines: removals must be reclaimed and counted,
// teardown must leave no logically-deleted node stitched, and Close must
// be idempotent and observable.
func TestHandleLifecycle(t *testing.T) {
	s := newLifecycleMap(Config{})
	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0xfeedbeef))
			for r := 0; r < 20; r++ {
				for i := 0; i < 150; i++ {
					k := int64(rng.Uint64() % 512)
					if rng.Uint64()&1 == 0 {
						s.Insert(k, k)
					} else {
						s.Remove(k)
					}
				}
				// A batch per round: move a key to its neighbour.
				k := int64(rng.Uint64() % 512)
				_ = s.Atomic(func(op *Txn[int64, int64]) error {
					if op.Remove(k) {
						op.Put(k+1, k)
					}
					return nil
				})
			}
		}(uint64(g) + 1)
	}
	wg.Wait()
	if err := s.CheckInvariants(CheckOptions{}); err != nil {
		t.Errorf("invariants: %v", err)
	}
	if stitched, live := s.StitchedSlow(), s.SizeSlow(); stitched != live {
		t.Errorf("stitched %d != live %d after churn", stitched, live)
	}
	if ms := s.MaintenanceStats(); ms.DrainedNodes == 0 {
		t.Errorf("no removal counted as drained: %+v", ms)
	}
	s.Close()
	s.Close() // idempotent
	if !s.Closed() {
		t.Error("Closed() = false after Close")
	}
}

// closeRaceProbe is a Persister stub that records Close calls and how
// they interleave, standing in for the durability engine whose
// flush-on-Close makes the Close contract load-bearing.
type closeRaceProbe struct {
	mu     sync.Mutex
	closes int
	inside bool
}

func (p *closeRaceProbe) Snapshot() error      { return nil }
func (p *closeRaceProbe) Sync() error          { return nil }
func (p *closeRaceProbe) Err() error           { return nil }
func (p *closeRaceProbe) SimulateCrash() error { return nil }

func (p *closeRaceProbe) Close() error {
	p.mu.Lock()
	if p.inside {
		p.mu.Unlock()
		panic("Persister.Close entered concurrently")
	}
	p.inside = true
	p.closes++
	p.mu.Unlock()
	time.Sleep(2 * time.Millisecond) // widen the race window
	p.mu.Lock()
	p.inside = false
	p.mu.Unlock()
	return nil
}

func (p *closeRaceProbe) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closes
}

// TestCloseConcurrent pins the Close contract of the map, which owns the
// durability engine: concurrent Close calls,
// racing operations, all return after teardown, every call observes the
// fully closed map with its engine flushed, and the engine is closed
// exactly once.
func TestCloseConcurrent(t *testing.T) {
	s := newLifecycleMap(Config{})
	probe := &closeRaceProbe{}
	s.AttachPersistence(nil, probe)
	for k := int64(0); k < 512; k++ {
		s.Insert(k, k)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s.Close()
			if !s.Closed() {
				t.Error("Close returned with Closed() == false")
			}
			if n := probe.count(); n != 1 {
				t.Errorf("Close returned before the persister flush: closes=%d", n)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			<-start
			for k := base; k < base+128; k++ {
				s.Remove(k)
			}
		}(int64(i) * 128)
	}
	close(start)
	wg.Wait()
	s.Close() // idempotent afterwards
	if n := probe.count(); n != 1 {
		t.Fatalf("persister closed %d times, want exactly 1", n)
	}
}

// TestUnclosedHandlesStrandNothing churns through Handle shims that are
// never closed, beside the map's own methods, with a GC mid-run: a
// removal reclaims its own node, so after the workers join no logically
// deleted node is stitched, and the range counters live in the map, so
// RangeStats counts exactly the ranges run.
func TestUnclosedHandlesStrandNothing(t *testing.T) {
	s := newLifecycleMap(Config{})
	const (
		goroutines = 8
		universe   = 512
	)
	before := s.RangeStats()
	var ranges atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0x5717c4))
			for r := 0; r < 10; r++ {
				h := s.NewHandle() // never closed
				for i := 0; i < 200; i++ {
					k := int64(rng.Uint64() % universe)
					switch rng.Uint64() % 8 {
					case 0, 1, 2:
						h.Insert(k, k)
					case 3, 4, 5:
						h.Remove(k)
					case 6:
						s.Put(k, k)
						s.Remove(k + 1)
					case 7:
						if rng.Uint64()&1 == 0 {
							h.Range(k, k+16, nil)
						} else {
							s.Range(k, k+16, nil)
						}
						ranges.Add(1)
					}
				}
				if r == 5 {
					runtime.GC()
				}
			}
		}(uint64(g) + 1)
	}
	wg.Wait()
	if stitched, live := s.StitchedSlow(), s.SizeSlow(); stitched != live {
		t.Errorf("%d logically deleted nodes stitched after the workers joined", stitched-live)
	}
	if err := s.CheckInvariants(CheckOptions{}); err != nil {
		t.Error(err)
	}
	d := s.RangeStats().Sub(before)
	if got, want := d.FastCommits+d.SlowCommits, ranges.Load(); got != want {
		t.Errorf("RangeStats counts %d completed ranges (%+v), want %d", got, d, want)
	}
}

// TestStripedCountersExact pins the sums of the striped counters when
// every operation counts in the cell its goroutine picks: goroutines at
// GOMAXPROCS 2 issue point reads, ranges, removals and Puts through the
// map's methods and Atomic. Afterwards fast-read hits plus fallbacks
// equal the point reads issued, fast plus slow range commits equal the
// ranges issued, and, with no slow range running any more, DrainedNodes
// equals the successful removals (a Put that replaced removed one node).
func TestStripedCountersExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := newLifecycleMap(Config{})
	const (
		goroutines = 8
		iters      = 4000
		universe   = 512
	)
	stmBefore, rangeBefore, drainBefore := m.STMStats(), m.RangeStats(), m.MaintenanceStats()
	var reads, ranges, removals atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0xc0de))
			var buf []Pair[int64, int64]
			for i := 0; i < iters; i++ {
				k := int64(rng.Uint64() % universe)
				switch rng.Uint64() % 8 {
				case 0, 1:
					m.Insert(k, k)
				case 2:
					if m.Remove(k) {
						removals.Add(1)
					}
				case 3:
					if m.Put(k, -k) {
						removals.Add(1)
					}
				case 4:
					m.Lookup(k)
					reads.Add(1)
				case 5:
					m.Contains(k)
					reads.Add(1)
				case 6:
					buf = m.Range(k, k+32, buf[:0])
					ranges.Add(1)
				case 7:
					var removed bool
					_ = m.Atomic(func(op *Txn[int64, int64]) error {
						removed = op.Remove(k)
						return nil
					})
					if removed {
						removals.Add(1)
					}
				}
			}
		}(uint64(g) + 1)
	}
	wg.Wait()

	s := m.STMStats().Sub(stmBefore)
	if got, want := s.FastReadHits+s.FastReadFallbacks, reads.Load(); got != want {
		t.Errorf("fast-read hits %d + fallbacks %d = %d, want the %d point reads issued",
			s.FastReadHits, s.FastReadFallbacks, got, want)
	}
	r := m.RangeStats().Sub(rangeBefore)
	if got, want := r.FastCommits+r.SlowCommits, ranges.Load(); got != want {
		t.Errorf("range commits %d (%+v), want the %d ranges issued", got, r, want)
	}
	if got, want := m.MaintenanceStats().DrainedNodes-drainBefore.DrainedNodes, removals.Load(); got != want {
		t.Errorf("DrainedNodes moved %d, want the %d successful removals", got, want)
	}
	if stitched, live := m.StitchedSlow(), m.SizeSlow(); stitched != live {
		t.Errorf("%d logically deleted nodes stitched after the workers joined", stitched-live)
	}
}
