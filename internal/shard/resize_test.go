package shard_test

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// TestResizeSequential grows and shrinks an idle map and checks that
// every key survives each migration, the live count is reported, and
// the partition invariant holds at the new geometry.
func TestResizeSequential(t *testing.T) {
	// The subtest name is kept stable for test-result history.
	t.Run("isolated=false", func(t *testing.T) {
		s := newInt64(core.Config{Shards: 2, Buckets: 4096})
		defer s.Close()
		const n = 4096
		for k := int64(0); k < n; k++ {
			s.Insert(k, k*3)
		}
		for _, target := range []int{8, 3, 1, 16, 2} {
			got, err := s.Resize(target)
			if err != nil {
				t.Fatalf("Resize(%d): %v", target, err)
			}
			want := target
			if want == 3 {
				want = 4 // rounded up to a power of two
			}
			if got != want || s.Shards() != want {
				t.Fatalf("Resize(%d) = %d, Shards() = %d, want %d", target, got, s.Shards(), want)
			}
			if sz := s.SizeSlow(); sz != n {
				t.Fatalf("after Resize(%d): size %d, want %d", target, sz, n)
			}
			for k := int64(0); k < n; k += 97 {
				if v, ok := s.Lookup(k); !ok || v != k*3 {
					t.Fatalf("after Resize(%d): Lookup(%d) = %d, %v", target, k, v, ok)
				}
			}
			if err := s.CheckInvariants(core.CheckOptions{}); err != nil {
				t.Fatalf("after Resize(%d): %v", target, err)
			}
		}
		st := s.ResizeStats()
		if st.Resizes != 5 || st.KeysCopied == 0 || st.Cutovers == 0 {
			t.Fatalf("resize stats %+v: want 5 resizes with copies and cutovers", st)
		}
	})
}

// TestResizeNoop covers the degenerate arguments: resizing to the
// current count is a no-op, and Resize reports the normalized count.
func TestResizeNoop(t *testing.T) {
	s := newInt64(core.Config{Shards: 4, Buckets: 1024})
	defer s.Close()
	if got, err := s.Resize(4); err != nil || got != 4 {
		t.Fatalf("Resize(4) = %d, %v", got, err)
	}
	if st := s.ResizeStats(); st.Resizes != 0 {
		t.Fatalf("no-op resize counted: %+v", st)
	}
	if got, err := s.Resize(5); err != nil || got != 8 {
		t.Fatalf("Resize(5) = %d, %v; want normalized 8", got, err)
	}
}

// TestResizeUnderLoad runs writers over disjoint key stripes while a
// resizer cycles the shard count up and down. Each writer knows exactly
// what its keys hold at every instant, so any routing gap — a key
// answered by a shard that is no longer (or not yet) authoritative —
// surfaces as a wrong read.
func TestResizeUnderLoad(t *testing.T) {
	// The subtest name is kept stable for test-result history.
	t.Run("isolated=false", func(t *testing.T) {
		s := newInt64(core.Config{Shards: 4, Buckets: 4096})
		defer s.Close()

		const writers = 4
		const stripe = 256
		var stop atomic.Bool
		var wg sync.WaitGroup
		errs := make(chan error, writers+1)

		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := s.NewHandle()
				defer h.Close()
				rng := rand.New(rand.NewPCG(uint64(w), 42))
				present := make(map[int64]int64, stripe)
				for !stop.Load() {
					k := int64(w*stripe) + int64(rng.IntN(stripe))
					switch rng.IntN(4) {
					case 0:
						v := rng.Int64()
						h.Put(k, v)
						present[k] = v
					case 1:
						h.Remove(k)
						delete(present, k)
					default:
						v, ok := h.Lookup(k)
						wantV, wantOK := present[k]
						if ok != wantOK || (ok && v != wantV) {
							errs <- fmt.Errorf("writer %d: Lookup(%d) = (%d,%v), want (%d,%v)",
								w, k, v, ok, wantV, wantOK)
							return
						}
					}
				}
			}(w)
		}

		wg.Add(1)
		go func() {
			defer wg.Done()
			counts := []int{8, 2, 16, 1, 4}
			for i := 0; i < 10; i++ {
				if _, err := s.Resize(counts[i%len(counts)]); err != nil {
					errs <- fmt.Errorf("resize: %v", err)
					return
				}
			}
			stop.Store(true)
		}()

		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		s.Quiesce()
		if err := s.CheckInvariants(core.CheckOptions{}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestResizeRangeStability keeps a fixed set of anchor keys in the map
// while resizes run, and checks that every full-range scan sees each
// anchor exactly once — a duplicated or dropped anchor means a scan
// observed a half-migrated region on both (or neither) side.
func TestResizeRangeStability(t *testing.T) {
	// The subtest name is kept stable for test-result history.
	t.Run("isolated=false", func(t *testing.T) {
		s := newInt64(core.Config{Shards: 8, Buckets: 4096})
		defer s.Close()
		const anchors = 512
		for k := int64(0); k < anchors; k++ {
			s.Insert(k*2, k) // even keys are anchors, never touched again
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		errs := make(chan error, 3)

		wg.Add(1)
		go func() { // churn odd keys so migrations have live traffic
			defer wg.Done()
			h := s.NewHandle()
			defer h.Close()
			rng := rand.New(rand.NewPCG(7, 7))
			for !stop.Load() {
				k := int64(rng.IntN(anchors))*2 + 1
				if rng.IntN(2) == 0 {
					h.Put(k, k)
				} else {
					h.Remove(k)
				}
			}
		}()

		wg.Add(1)
		go func() { // scan continuously
			defer wg.Done()
			h := s.NewHandle()
			defer h.Close()
			var buf []shard.Pair[int64, int64]
			for !stop.Load() {
				buf = h.Range(0, anchors*2, buf[:0])
				seen := 0
				last := int64(-1)
				for _, p := range buf {
					if p.Key <= last {
						errs <- fmt.Errorf("range out of order or duplicate: %d after %d", p.Key, last)
						return
					}
					last = p.Key
					if p.Key%2 == 0 {
						seen++
					}
				}
				if seen != anchors {
					errs <- fmt.Errorf("range saw %d anchors, want %d", seen, anchors)
					return
				}
			}
		}()

		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range []int{2, 16, 1, 8, 4, 32, 8} {
				if _, err := s.Resize(n); err != nil {
					errs <- err
					return
				}
			}
			stop.Store(true)
		}()

		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// TestResizeAtomicBatches runs multi-key read-modify-write batches
// while resizing: two counters must always move in
// lockstep, which only holds if batches stay atomic across shard
// boundaries that are themselves moving.
func TestResizeAtomicBatches(t *testing.T) {
	s := newInt64(core.Config{Shards: 2, Buckets: 1024})
	defer s.Close()
	const pairs = 16
	for k := int64(0); k < pairs*2; k++ {
		s.Insert(k, 0)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 3)

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			defer h.Close()
			rng := rand.New(rand.NewPCG(uint64(w), 11))
			for !stop.Load() {
				a := int64(rng.IntN(pairs))
				err := h.Atomic(func(op *shard.Txn[int64, int64]) error {
					va, _ := op.Lookup(a)
					vb, _ := op.Lookup(a + pairs)
					if va != vb {
						return fmt.Errorf("pair %d torn: %d vs %d", a, va, vb)
					}
					op.Put(a, va+1)
					op.Put(a+pairs, vb+1)
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, n := range []int{8, 1, 4, 16, 2} {
			if _, err := s.Resize(n); err != nil {
				errs <- err
				return
			}
		}
		stop.Store(true)
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for a := int64(0); a < pairs; a++ {
		va, _ := s.Lookup(a)
		vb, _ := s.Lookup(a + pairs)
		if va != vb {
			t.Fatalf("pair %d torn after quiesce: %d vs %d", a, va, vb)
		}
	}
}

// TestResizeObserver checks the cutover observer fires once per group
// and that Resizing reverts to false once the migration retires.
func TestResizeObserver(t *testing.T) {
	s := newInt64(core.Config{Shards: 4, Buckets: 1024})
	defer s.Close()
	for k := int64(0); k < 1024; k++ {
		s.Insert(k, k)
	}
	var cutovers atomic.Int64
	s.SetResizeObserver(func(group, tail int, d time.Duration) { cutovers.Add(1) })
	if _, err := s.Resize(8); err != nil {
		t.Fatal(err)
	}
	if got := cutovers.Load(); got != 4 { // groups = min(4, 8)
		t.Fatalf("observer fired %d times, want 4", got)
	}
	if s.Resizing() {
		t.Fatal("Resizing() still true after Resize returned")
	}
}
