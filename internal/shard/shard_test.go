package shard_test

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/linearize"
	"repro/internal/maptest"
	"repro/internal/shard"
	"repro/internal/stm"
	"repro/internal/thashmap"
)

func newInt64(cfg core.Config) *core.Map[int64, int64] {
	return shard.New[int64, int64](func(a, b int64) bool { return a < b }, thashmap.Hash64, cfg)
}

// atProcs runs fn as a subtest at GOMAXPROCS procs. The subtest is named
// for the partition count the zero Config used to derive at that
// setting; the map no longer partitions, and the names stay so results
// line up with earlier runs.
func atProcs(t *testing.T, procs int, fn func(t *testing.T)) {
	t.Run(fmt.Sprintf("shards=%d", procs), func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		fn(t)
	})
}

// adapter exposes the map shard.New builds through the shared
// conformance interface.
type adapter struct {
	s *core.Map[int64, int64]
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
	_ = a.s.Atomic(func(op *core.Txn[int64, int64]) error {
		linearize.ApplySteps(steps, op.Insert, op.Remove, op.Lookup)
		return nil
	})
}

// InstallSTMHooks installs hooks on the map's runtime.
func (a adapter) InstallSTMHooks(h stm.Hooks) { a.s.Runtime().SetHooks(h) }

func factory() maptest.OrderedMap {
	return adapter{s: newInt64(core.Config{Buckets: 4096})}
}

// TestConformance runs the full suite — including ordered iteration,
// range-query snapshot sanity, and the range-population linearizability
// bound under concurrent removes — at GOMAXPROCS 1, 2 and 8.
func TestConformance(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		atProcs(t, procs, func(t *testing.T) { maptest.RunAll(t, factory) })
	}
}

// TestRangeLinearizableUnderRemoves is a sharper edition of the
// conformance suite's count bound, aimed at ranges racing removals:
// every remove is immediately re-inserted, so any full-universe range
// must see at least universe-writers keys; a range that is not one
// snapshot would routinely see fewer.
func TestRangeLinearizableUnderRemoves(t *testing.T) {
	for _, procs := range []int{2, 8} {
		atProcs(t, procs, func(t *testing.T) {
			s := newInt64(core.Config{Buckets: 4096})
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
					rng := rand.New(rand.NewPCG(seed, seed^0x77))
					for i := 0; i < 3000; i++ {
						k := base + int64(rng.Uint64()%stripe)
						if s.Remove(k) {
							s.Insert(k, k)
						}
					}
				}(int64(g)*stripe, uint64(g)+3)
			}
			var readerWG sync.WaitGroup
			for g := 0; g < 2; g++ {
				readerWG.Add(1)
				go func() {
					defer readerWG.Done()
					var buf []core.Pair[int64, int64]
					for {
						select {
						case <-stop:
							return
						default:
						}
						buf = s.Range(0, universe, buf[:0])
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

// TestAtomicCrossShardShared verifies that an Atomic batch is one
// transaction: a transfer between two keys is either fully visible or
// not at all. (The name is from when the two keys lived on different
// shards of one shared runtime.)
func TestAtomicCrossShardShared(t *testing.T) {
	s := newInt64(core.Config{Buckets: 4096})
	a, b := int64(0), int64(1)
	s.Insert(a, 100)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			_ = s.Atomic(func(op *core.Txn[int64, int64]) error {
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
		_ = s.Atomic(func(op *core.Txn[int64, int64]) error {
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
			t.Fatalf("observed %d of {a, b}; batch not atomic", seen)
		}
	}
}

// TestIterators checks the ascending/descending iterators and their
// bounded variants against a sorted model.
func TestIterators(t *testing.T) {
	for _, procs := range []int{1, 4} {
		atProcs(t, procs, func(t *testing.T) {
			s := newInt64(core.Config{Buckets: 1024})
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
