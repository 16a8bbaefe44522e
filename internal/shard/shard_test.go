package shard_test

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/linearize"
	"repro/internal/maptest"
	"repro/internal/shard"
	"repro/internal/stm"
	"repro/internal/thashmap"
)

func newInt64(cfg core.Config) *shard.Sharded[int64, int64] {
	return shard.New[int64, int64](func(a, b int64) bool { return a < b }, thashmap.Hash64, cfg)
}

// adapter exposes a sharded map through the shared conformance
// interface.
type adapter struct {
	s *shard.Sharded[int64, int64]
}

func (a adapter) Lookup(k int64) (int64, bool) { return a.s.Lookup(k) }
func (a adapter) Insert(k, v int64) bool       { return a.s.Insert(k, v) }
func (a adapter) Remove(k int64) bool          { return a.s.Remove(k) }

func (a adapter) Range(l, r int64, buf []maptest.KV) []maptest.KV {
	for _, p := range a.s.Range(l, r, nil) {
		buf = append(buf, maptest.KV{Key: p.Key, Val: p.Val})
	}
	return buf
}

func (a adapter) Ceil(k int64) (int64, int64, bool)  { return a.s.Ceil(k) }
func (a adapter) Floor(k int64) (int64, int64, bool) { return a.s.Floor(k) }
func (a adapter) Succ(k int64) (int64, int64, bool)  { return a.s.Succ(k) }
func (a adapter) Pred(k int64) (int64, int64, bool)  { return a.s.Pred(k) }

func (a adapter) CheckIdle() error {
	return a.s.CheckInvariants(core.CheckOptions{})
}

// Close exposes the map's teardown to the churn component.
func (a adapter) Close() { a.s.Close() }

// Batch applies steps as one Atomic batch.
func (a adapter) Batch(steps []linearize.Step) {
	_ = a.s.Atomic(func(op *shard.Txn[int64, int64]) error {
		linearize.ApplySteps(steps, op.Insert, op.Remove, op.Lookup)
		return nil
	})
}

// InstallSTMHooks installs hooks on the runtime every shard runs on.
func (a adapter) InstallSTMHooks(h stm.Hooks) { a.s.Runtime().SetHooks(h) }

func factory(cfg core.Config) maptest.Factory {
	return func() maptest.OrderedMap {
		cfg := cfg
		cfg.Buckets = 4096 // split across shards by the constructor
		return adapter{s: newInt64(cfg)}
	}
}

// TestConformance runs the full suite — including ordered iteration,
// range-query snapshot sanity, and the range-population linearizability
// bound under concurrent removes — at several shard counts.
func TestConformance(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			maptest.RunAll(t, factory(core.Config{Shards: shards}))
		})
	}
}

// TestRangeLinearizableUnderRemoves is a sharper edition of the
// conformance suite's count bound, aimed specifically at cross-shard
// ranges racing removals: every remove is immediately re-inserted, so
// any full-universe range must see at least universe-writers keys; a
// merge of inconsistent per-shard snapshots would routinely see fewer.
func TestRangeLinearizableUnderRemoves(t *testing.T) {
	for _, shards := range []int{2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := newInt64(core.Config{Shards: shards, Buckets: 4096})
			const writers = 4
			const stripe = 64
			const universe = writers * stripe
			for k := int64(0); k < universe; k++ {
				s.Insert(k, k)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(base int64, seed uint64) {
					defer wg.Done()
					h := s.NewHandle()
					rng := rand.New(rand.NewPCG(seed, seed^0x77))
					for i := 0; i < 3000; i++ {
						k := base + int64(rng.Uint64()%stripe)
						if h.Remove(k) {
							h.Insert(k, k)
						}
					}
				}(int64(g)*stripe, uint64(g)+3)
			}
			var readerWG sync.WaitGroup
			for g := 0; g < 2; g++ {
				readerWG.Add(1)
				go func() {
					defer readerWG.Done()
					h := s.NewHandle()
					var buf []shard.Pair[int64, int64]
					for {
						select {
						case <-stop:
							return
						default:
						}
						buf = h.Range(0, universe, buf[:0])
						if len(buf) < universe-writers || len(buf) > universe {
							t.Errorf("range population %d outside [%d, %d]",
								len(buf), universe-writers, universe)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			readerWG.Wait()
			if err := s.CheckInvariants(core.CheckOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAtomicCrossShardShared verifies that shared-runtime batches span
// shards atomically: a transfer between keys in different shards is
// either fully visible or not at all.
func TestAtomicCrossShardShared(t *testing.T) {
	s := newInt64(core.Config{Shards: 8, Buckets: 4096})
	// Find two keys living in different shards.
	a, b := int64(0), int64(-1)
	for k := int64(1); k < 1024; k++ {
		if s.Shard(0) != nil && shardOf(s, k) != shardOf(s, a) {
			b = k
			break
		}
	}
	if b < 0 {
		t.Fatal("no cross-shard key pair found")
	}
	s.Insert(a, 100)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			_ = s.Atomic(func(op *shard.Txn[int64, int64]) error {
				if v, ok := op.Lookup(a); ok {
					op.Remove(a)
					op.Insert(b, v)
				} else if v, ok := op.Lookup(b); ok {
					op.Remove(b)
					op.Insert(a, v)
				}
				return nil
			})
		}
		close(stop)
	}()
	for {
		select {
		case <-stop:
			wg.Wait()
			va, oka := s.Lookup(a)
			vb, okb := s.Lookup(b)
			if oka == okb || (oka && va != 100) || (okb && vb != 100) {
				t.Fatalf("final state a=(%d,%v) b=(%d,%v)", va, oka, vb, okb)
			}
			return
		default:
		}
		var seen int
		_ = s.Atomic(func(op *shard.Txn[int64, int64]) error {
			seen = 0
			if _, ok := op.Lookup(a); ok {
				seen++
			}
			if _, ok := op.Lookup(b); ok {
				seen++
			}
			return nil
		})
		if seen != 1 {
			t.Fatalf("observed %d of {a, b}; cross-shard batch not atomic", seen)
		}
	}
}

// shardOf recovers a key's shard through the public surface: insert it
// (transiently, if it was absent) and find which shard reports it.
func shardOf(s *shard.Sharded[int64, int64], k int64) int {
	if s.Insert(k, k) {
		defer s.Remove(k)
	}
	for i := 0; i < s.Shards(); i++ {
		h := s.Shard(i).NewHandle()
		if h.Contains(k) {
			return i
		}
	}
	return -1
}

// TestIterators checks the merged ascending/descending iterators and
// their bounded variants against a sorted model.
func TestIterators(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := newInt64(core.Config{Shards: shards, Buckets: 1024})
			const n = 500
			for k := int64(0); k < n; k++ {
				s.Insert(k*3, k*3+1)
			}
			want := int64(0)
			for k, v := range s.All() {
				if k != want*3 || v != want*3+1 {
					t.Fatalf("All: got (%d,%d), want (%d,%d)", k, v, want*3, want*3+1)
				}
				want++
			}
			if want != n {
				t.Fatalf("All visited %d pairs, want %d", want, n)
			}
			want = n - 1
			for k := range s.Backward() {
				if k != want*3 {
					t.Fatalf("Backward: got %d, want %d", k, want*3)
				}
				want--
			}
			var got []int64
			s.AscendFrom(100, func(k, v int64) bool {
				got = append(got, k)
				return len(got) < 5
			})
			if len(got) != 5 || got[0] != 102 || got[4] != 114 {
				t.Fatalf("AscendFrom(100) head = %v", got)
			}
			got = got[:0]
			s.DescendFrom(100, func(k, v int64) bool {
				got = append(got, k)
				return len(got) < 5
			})
			if len(got) != 5 || got[0] != 99 || got[4] != 87 {
				t.Fatalf("DescendFrom(100) head = %v", got)
			}
		})
	}
}

// TestShardCountDefaults pins the shard-count normalization rules.
func TestShardCountDefaults(t *testing.T) {
	if got := newInt64(core.Config{Shards: 3, Buckets: 1024}).Shards(); got != 4 {
		t.Errorf("Shards:3 normalized to %d, want 4", got)
	}
	if got := newInt64(core.Config{Shards: 8, Buckets: 1024}).Shards(); got != 8 {
		t.Errorf("Shards:8 normalized to %d, want 8", got)
	}
	s := newInt64(core.Config{Buckets: 1024})
	if n := s.Shards(); n < 1 || n&(n-1) != 0 {
		t.Errorf("default shard count %d is not a positive power of two", n)
	}
}

// TestShardPlacement fills the map and relies on CheckInvariants'
// partition audit to verify keys land in their hash-selected shard, and
// that population spreads across shards at all.
func TestShardPlacement(t *testing.T) {
	s := newInt64(core.Config{Shards: 8, Buckets: 4096})
	for k := int64(0); k < 4096; k++ {
		s.Insert(k, k)
	}
	if err := s.CheckInvariants(core.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Shards(); i++ {
		if n := s.Shard(i).SizeSlow(); n < 4096/8/4 {
			t.Errorf("shard %d holds %d of 4096 keys: poor spread", i, n)
		}
	}
	if got := s.SizeSlow(); got != 4096 {
		t.Errorf("SizeSlow = %d, want 4096", got)
	}
}

// TestNewStartsNoGoroutine pins that no map owns a goroutine, whatever
// its Config asks for: removals reclaim on the callers' own goroutines,
// at one shard and at four.
func TestNewStartsNoGoroutine(t *testing.T) {
	cfg := core.Config{Maintenance: true}
	before := runtime.NumGoroutine()
	m := core.New[int64, int64](func(a, b int64) bool { return a < b }, thashmap.Hash64, cfg)
	cfg.Shards = 4
	s := newInt64(cfg)
	for k := int64(0); k < 400; k++ {
		_ = m.Atomic(func(op *core.Txn[int64, int64]) error { op.Insert(k, k); return nil })
		_ = m.Atomic(func(op *core.Txn[int64, int64]) error { op.Remove(k); return nil })
		s.Insert(k, k)
		s.Remove(k)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after building and using two maps, want at most %d", got, before)
	}
	m.Close()
	s.Close()
}

// TestShardedHandleLifecycle churns explicit and pooled handles on a
// sharded map: removals must be reclaimed and counted, and teardown
// must leave no logically-deleted node stitched on any shard.
func TestShardedHandleLifecycle(t *testing.T) {
	s := newInt64(core.Config{Shards: 4, Buckets: 4096})
	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0xfeedbeef))
			for r := 0; r < 20; r++ {
				h := s.NewHandle()
				for i := 0; i < 150; i++ {
					k := int64(rng.Uint64() % 512)
					if rng.Uint64()&1 == 0 {
						h.Insert(k, k)
					} else {
						h.Remove(k)
					}
				}
				h.Close()
				// Convenience path between handle generations.
				for i := 0; i < 150; i++ {
					k := int64(rng.Uint64() % 512)
					if rng.Uint64()&1 == 0 {
						s.Insert(k, k)
					} else {
						s.Remove(k)
					}
				}
			}
		}(uint64(g) + 1)
	}
	wg.Wait()
	if err := s.CheckInvariants(core.CheckOptions{}); err != nil {
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

// TestShardedCloseConcurrent pins the Close contract of the sharded
// frontend, which owns the durability engine: concurrent Close calls,
// racing operations, all return after teardown, every call observes the
// fully closed map with its engine flushed, and the engine is closed
// exactly once.
func TestShardedCloseConcurrent(t *testing.T) {
	s := newInt64(core.Config{Shards: 4})
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

// TestUnclosedHandlesStrandNothing churns through explicit handles that
// are never closed, beside convenience calls, with GC emptying the
// handle pools mid-run: a removal reclaims its own node, so after the
// workers join no logically deleted node is stitched, and the range
// counters live in the map, so RangeStats counts exactly the ranges run.
func TestUnclosedHandlesStrandNothing(t *testing.T) {
	s := newInt64(core.Config{Shards: 4, Buckets: 4096})
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
	if err := s.CheckInvariants(core.CheckOptions{}); err != nil {
		t.Error(err)
	}
	d := s.RangeStats().Sub(before)
	if got, want := d.FastCommits+d.SlowCommits, ranges.Load(); got != want {
		t.Errorf("RangeStats counts %d completed ranges (%+v), want %d", got, d, want)
	}
}
