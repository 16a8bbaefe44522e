package stm

import (
	"sync"
	"testing"
)

// TestClockConformance pins the Clock contract: Read and Next are
// monotone, Next never falls below an earlier Read, and a committed
// stamp never exceeds a later Read (the runtime rejects equality, which
// costs a false abort, never a violation).
//
// The clock tests run as an "hwclock" subtest, the name the one clock
// (a monotonic-nanosecond stand-in for the paper's rdtscp) carried when
// the runtime offered several.
func TestClockConformance(t *testing.T) {
	t.Run("hwclock", testClockConformance)
}

func testClockConformance(t *testing.T) {
	c := New().Clock()

	// Read is monotone non-decreasing.
	prev := c.Read()
	for i := 0; i < 1000; i++ {
		r := c.Read()
		if r < prev {
			t.Fatalf("Read went backwards: %d after %d", r, prev)
		}
		prev = r
	}

	// Next is monotone non-decreasing, and never falls below Read's past.
	start := c.Read()
	prevNext := uint64(0)
	for i := 0; i < 1000; i++ {
		n := c.Next()
		if n < start {
			t.Fatalf("Next() = %d below earlier Read() = %d", n, start)
		}
		if n < prevNext {
			t.Fatalf("Next went backwards: %d after %d", n, prevNext)
		}
		prevNext = n
	}

	// Admission: a later Read is at least every committed stamp.
	stamp := c.Next()
	if r := c.Read(); r < stamp {
		t.Fatalf("Read() = %d below committed stamp %d", r, stamp)
	}
}

// TestClockConcurrentStamps hammers Next from many goroutines and
// checks each goroutine's stamps stay monotone under contention.
func TestClockConcurrentStamps(t *testing.T) {
	t.Run("hwclock", testClockConcurrentStamps)
}

func testClockConcurrentStamps(t *testing.T) {
	c := New().Clock()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prev := uint64(0)
			for i := 0; i < perWorker; i++ {
				s := c.Next()
				if s < prev {
					t.Errorf("worker %d saw Next go backwards: %d after %d", w, s, prev)
					return
				}
				prev = s
			}
		}(w)
	}
	wg.Wait()
}

// TestClockRuntimeIntegration runs a small contended transactional
// workload, confirming the strict admission rule end to end.
func TestClockRuntimeIntegration(t *testing.T) {
	t.Run("hwclock", testClockRuntimeIntegration)
}

func testClockRuntimeIntegration(t *testing.T) {
	rt := New()
	cells := make([]hookCell, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ci := i % len(cells)
				_ = rt.Atomic(func(tx *Tx) error {
					cell := &cells[ci]
					cell.v.Store(tx, &cell.orec, cell.v.Load(tx, &cell.orec)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	var total uint64
	for i := range cells {
		total += cells[i].v.Raw()
	}
	if total != 4*500 {
		t.Fatalf("lost updates: %d of %d", total, 4*500)
	}
}
