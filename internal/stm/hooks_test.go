package stm

import (
	"sync"
	"testing"
	"time"
)

// hookCell is a minimal transactional object for hook tests.
type hookCell struct {
	orec Orec
	v    U64
}

// traceHooks records every firing and aborts according to a script.
type traceHooks struct {
	mu     sync.Mutex
	points []Point
	abort  map[Point]int // abort the first n firings at each point
}

func (h *traceHooks) OnPoint(p Point, txID uint64, attempt int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.points = append(h.points, p)
	if h.abort[p] > 0 {
		h.abort[p]--
		return false
	}
	return true
}

func TestHookPointOrder(t *testing.T) {
	h := &traceHooks{}
	rt := New()
	rt.SetHooks(h)
	c := &hookCell{}
	// A writing transaction fires begin, validate, commit in order.
	if err := rt.Atomic(func(tx *Tx) error {
		c.v.Store(tx, &c.orec, 7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []Point{PointBegin, PointValidate, PointCommit}
	if len(h.points) != len(want) {
		t.Fatalf("writer fired %v, want %v", h.points, want)
	}
	for i := range want {
		if h.points[i] != want[i] {
			t.Fatalf("writer fired %v, want %v", h.points, want)
		}
	}
	// A read-only transaction skips validate.
	h.points = nil
	if err := rt.Atomic(func(tx *Tx) error {
		_ = c.v.Load(tx, &c.orec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want = []Point{PointBegin, PointCommit}
	if len(h.points) != 2 || h.points[0] != want[0] || h.points[1] != want[1] {
		t.Fatalf("reader fired %v, want %v", h.points, want)
	}
}

func TestHookInjectedAborts(t *testing.T) {
	for _, p := range []Point{PointBegin, PointValidate, PointCommit} {
		h := &traceHooks{abort: map[Point]int{p: 1}}
		rt := New()
		rt.SetHooks(h)
		c := &hookCell{}
		if err := rt.Atomic(func(tx *Tx) error {
			c.v.Store(tx, &c.orec, 42)
			return nil
		}); err != nil {
			t.Fatalf("abort at %v: Atomic returned %v", p, err)
		}
		if got := c.v.Raw(); got != 42 {
			t.Fatalf("abort at %v: value %d after retry, want 42", p, got)
		}
		if aborts := rt.Stats().Aborts; aborts < 1 {
			t.Fatalf("abort at %v: stats report %d aborts, want >= 1", p, aborts)
		}
	}
}

func TestHookAbortTryOnce(t *testing.T) {
	h := &traceHooks{abort: map[Point]int{PointBegin: 1}}
	rt := New()
	rt.SetHooks(h)
	if err := rt.TryOnce(func(tx *Tx) error { return nil }); err != ErrAborted {
		t.Fatalf("TryOnce under begin-abort = %v, want ErrAborted", err)
	}
}

func TestSetHooksSwap(t *testing.T) {
	rt := New()
	c := &hookCell{}
	h := &traceHooks{}
	rt.SetHooks(h)
	_ = rt.Atomic(func(tx *Tx) error { c.v.Store(tx, &c.orec, 1); return nil })
	if len(h.points) == 0 {
		t.Fatal("installed hooks never fired")
	}
	rt.SetHooks(nil)
	n := len(h.points)
	_ = rt.Atomic(func(tx *Tx) error { c.v.Store(tx, &c.orec, 2); return nil })
	if len(h.points) != n {
		t.Fatal("removed hooks still fired")
	}
}

func TestAbortInjectorConverges(t *testing.T) {
	// Heavy injection must still let every transaction through
	// eventually, with the final state exactly as without faults.
	inj := NewAbortInjector(99, 1, 3)
	rt := New(WithBackoffSeed(7))
	rt.SetHooks(inj)
	cells := make([]hookCell, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ci := i % len(cells)
				_ = rt.Atomic(func(tx *Tx) error {
					c := &cells[ci]
					c.v.Store(tx, &c.orec, c.v.Load(tx, &c.orec)+1)
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
	if total != 4*200 {
		t.Fatalf("total increments = %d, want %d", total, 4*200)
	}
	if inj.Injected() == 0 {
		t.Fatal("injector never fired")
	}
	if inj.Aborts() == 0 {
		t.Fatal("injector never aborted an attempt")
	}
	if rt.Stats().Aborts == 0 {
		t.Fatal("no aborts recorded despite injection")
	}
}

func TestStepSchedulerSerializesAndCompletes(t *testing.T) {
	sched := NewStepScheduler(12345)
	rt := New()
	rt.SetHooks(sched)
	var cell hookCell
	const workers = 4
	const perWorker = 100

	sched.Freeze()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sched.Attach()
			defer sched.Detach()
			for i := 0; i < perWorker; i++ {
				_ = rt.Atomic(func(tx *Tx) error {
					cell.v.Store(tx, &cell.orec, cell.v.Load(tx, &cell.orec)+1)
					return nil
				})
			}
		}()
		// Deterministic start order: wait for this worker to park at its
		// first point before starting the next.
		deadline := time.Now().Add(10 * time.Second)
		for sched.Waiting() != w+1 {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d never parked (waiting=%d)", w, sched.Waiting())
			}
			time.Sleep(time.Millisecond)
		}
	}
	sched.Release()
	wg.Wait()

	if got := cell.v.Raw(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if sched.Steps() == 0 {
		t.Fatal("scheduler made no decisions")
	}
	if sched.Waiting() != 0 {
		t.Fatalf("%d goroutines still parked after completion", sched.Waiting())
	}
	// Disengaged scheduler passes unattached traffic through.
	if err := rt.Atomic(func(tx *Tx) error {
		cell.v.Store(tx, &cell.orec, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBackoffSeedIsolatesStreams(t *testing.T) {
	// Two runtimes with the same seed hand descriptors identical PRNG
	// streams; different seeds diverge. Observable through nextRand via
	// a single-descriptor probe.
	draw := func(seed uint64) uint64 {
		rt := New(WithBackoffSeed(seed))
		var out uint64
		_ = rt.Atomic(func(tx *Tx) error {
			out = tx.rng
			return nil
		})
		return out
	}
	if draw(1) != draw(1) {
		t.Error("same seed produced different descriptor streams")
	}
	if draw(1) == draw(2) {
		t.Error("different seeds produced identical descriptor streams")
	}
}
