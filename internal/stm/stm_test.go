package stm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

type cell struct {
	orec Orec
	v    U64
}

func TestOrecWordEncoding(t *testing.T) {
	tests := []struct {
		name   string
		word   orecWord
		locked bool
		val    uint64
	}{
		{"zero is unlocked version 0", versionWord(0), false, 0},
		{"version 42", versionWord(42), false, 42},
		{"lock by tx 7", lockWord(7), true, 7},
		{"large version", versionWord(1 << 60), false, 1 << 60},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.word.locked(); got != tt.locked {
				t.Errorf("locked() = %v, want %v", got, tt.locked)
			}
			if tt.locked {
				if got := tt.word.owner(); got != tt.val {
					t.Errorf("owner() = %d, want %d", got, tt.val)
				}
			} else {
				if got := tt.word.version(); got != tt.val {
					t.Errorf("version() = %d, want %d", got, tt.val)
				}
			}
		})
	}
}

func TestAtomicReadWrite(t *testing.T) {
	rt := New()
	var c cell
	if err := rt.Atomic(func(tx *Tx) error {
		c.v.Store(tx, &c.orec, 41)
		got := c.v.Load(tx, &c.orec)
		if got != 41 {
			t.Errorf("read-after-write inside tx = %d, want 41", got)
		}
		c.v.Store(tx, &c.orec, got+1)
		return nil
	}); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if got := c.v.Raw(); got != 42 {
		t.Errorf("committed value = %d, want 42", got)
	}
	if c.orec.Locked() {
		t.Error("orec still locked after commit")
	}
}

func TestUserErrorRollsBack(t *testing.T) {
	rt := New()
	var c cell
	c.v.Init(10)
	wantErr := errors.New("boom")
	err := rt.Atomic(func(tx *Tx) error {
		c.v.Store(tx, &c.orec, 99)
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("Atomic error = %v, want %v", err, wantErr)
	}
	if got := c.v.Raw(); got != 10 {
		t.Errorf("value after rollback = %d, want 10", got)
	}
	if c.orec.Locked() {
		t.Error("orec still locked after rollback")
	}
}

func TestPanicRollsBackAndPropagates(t *testing.T) {
	rt := New()
	var c cell
	c.v.Init(7)
	func() {
		defer func() {
			if r := recover(); r != "kapow" {
				t.Errorf("recovered %v, want kapow", r)
			}
		}()
		_ = rt.Atomic(func(tx *Tx) error {
			c.v.Store(tx, &c.orec, 1)
			panic("kapow")
		})
	}()
	if got := c.v.Raw(); got != 7 {
		t.Errorf("value after panic rollback = %d, want 7", got)
	}
	if c.orec.Locked() {
		t.Error("orec still locked after panic rollback")
	}
}

func TestTryOnceAbortsOnConflict(t *testing.T) {
	rt := New()
	var c cell

	// Lock the orec as if another transaction owned it.
	other := lockWord(1 << 40)
	c.orec.store(other)
	err := rt.TryOnce(func(tx *Tx) error {
		_ = c.v.Load(tx, &c.orec)
		return nil
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("TryOnce with locked orec = %v, want ErrAborted", err)
	}
	c.orec.store(versionWord(0))
	if err := rt.TryOnce(func(tx *Tx) error {
		c.v.Store(tx, &c.orec, 5)
		return nil
	}); err != nil {
		t.Fatalf("TryOnce without conflict: %v", err)
	}
	if got := c.v.Raw(); got != 5 {
		t.Errorf("value = %d, want 5", got)
	}
}

// commitFunc and publishFunc let tests register a closure as a hook
// target (the payload is unused); product code registers long-lived
// objects so that a registration allocates nothing.
type commitFunc func()

func (f commitFunc) Committed(unsafe.Pointer) error {
	f()
	return nil
}

type publishFunc func(stamp uint64)

func (f publishFunc) Published(stamp uint64, _ unsafe.Pointer) error {
	f(stamp)
	return nil
}

// hookErr is a hook target that returns err from both hooks.
type hookErr struct{ err error }

func (h hookErr) Committed(unsafe.Pointer) error { return h.err }

func (h hookErr) Published(uint64, unsafe.Pointer) error { return h.err }

func TestOnCommitHooks(t *testing.T) {
	rt := New()
	var c cell

	t.Run("run on commit", func(t *testing.T) {
		fired := 0
		if err := rt.Atomic(func(tx *Tx) error {
			c.v.Store(tx, &c.orec, 1)
			tx.OnCommit(commitFunc(func() { fired++ }), nil)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if fired != 1 {
			t.Errorf("hook fired %d times, want 1", fired)
		}
	})

	t.Run("dropped on user error", func(t *testing.T) {
		fired := 0
		_ = rt.Atomic(func(tx *Tx) error {
			tx.OnCommit(commitFunc(func() { fired++ }), nil)
			return errors.New("no")
		})
		if fired != 0 {
			t.Errorf("hook fired %d times after rollback, want 0", fired)
		}
	})

	t.Run("fired once despite retries", func(t *testing.T) {
		fired := 0
		tries := 0
		if err := rt.Atomic(func(tx *Tx) error {
			tries++
			if tries == 1 {
				tx.OnCommit(commitFunc(func() { fired++ }), nil)
				tx.conflict(reasonAcquire) // force a retry after registering
			}
			tx.OnCommit(commitFunc(func() { fired++ }), nil)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if fired != 1 {
			t.Errorf("hook fired %d times, want exactly 1", fired)
		}
	})
}

func TestReadOnlySnapshotConsistency(t *testing.T) {
	// A read-only transaction must never observe a half-applied update
	// to a pair of cells kept equal by writers.
	rt := New()
	var a, b cell
	const writers = 4
	const iters = 3000

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < iters; i++ {
				_ = rt.Atomic(func(tx *Tx) error {
					v := a.v.Load(tx, &a.orec)
					a.v.Store(tx, &a.orec, v+1)
					b.v.Store(tx, &b.orec, v+1)
					return nil
				})
			}
		}()
	}
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = rt.Atomic(func(tx *Tx) error {
				av := a.v.Load(tx, &a.orec)
				bv := b.v.Load(tx, &b.orec)
				if av != bv {
					t.Errorf("torn snapshot: a=%d b=%d", av, bv)
				}
				return nil
			})
		}
	}()
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	if got, want := a.v.Raw(), b.v.Raw(); got != want {
		t.Errorf("final a=%d b=%d, want equal", got, want)
	}
}

func TestConcurrentCountersSumPreserved(t *testing.T) {
	t.Run("hwclock", testConcurrentCountersSumPreserved)
}

func testConcurrentCountersSumPreserved(t *testing.T) {
	// Bank-transfer invariant: concurrent transfers between random
	// accounts preserve the total.
	rt := New()
	const nAccounts = 16
	const perAccount = 1000
	accounts := make([]cell, nAccounts)
	for i := range accounts {
		accounts[i].v.Init(perAccount)
	}
	const goroutines = 8
	const transfers = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := seed
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for i := 0; i < transfers; i++ {
				from := &accounts[next()%nAccounts]
				to := &accounts[next()%nAccounts]
				if from == to {
					continue
				}
				_ = rt.Atomic(func(tx *Tx) error {
					fv := from.v.Load(tx, &from.orec)
					if fv == 0 {
						return nil
					}
					from.v.Store(tx, &from.orec, fv-1)
					tv := to.v.Load(tx, &to.orec)
					to.v.Store(tx, &to.orec, tv+1)
					return nil
				})
			}
		}(uint64(g) + 1)
	}
	wg.Wait()
	var total uint64
	for i := range accounts {
		total += accounts[i].v.Raw()
	}
	if total != nAccounts*perAccount {
		t.Errorf("total = %d, want %d", total, nAccounts*perAccount)
	}
}

func TestStatsCounting(t *testing.T) {
	rt := New()
	var c cell
	before := rt.Stats()
	for i := 0; i < 5; i++ {
		_ = rt.Atomic(func(tx *Tx) error {
			c.v.Store(tx, &c.orec, uint64(i))
			return nil
		})
	}
	_ = rt.Atomic(func(tx *Tx) error {
		_ = c.v.Load(tx, &c.orec)
		return nil
	})
	s := rt.Stats().Sub(before)
	if s.Commits != 6 {
		t.Errorf("Commits = %d, want 6", s.Commits)
	}
	if s.ReadOnlyCommits != 1 {
		t.Errorf("ReadOnlyCommits = %d, want 1", s.ReadOnlyCommits)
	}
}

func TestClockMonotonic(t *testing.T) {
	t.Run("hwclock", func(t *testing.T) {
		clk := New().Clock()
		last := uint64(0)
		for i := 0; i < 1000; i++ {
			n := clk.Next()
			if n < last {
				t.Fatalf("Next went backwards: %d after %d", n, last)
			}
			last = n
		}
	})
}

func TestPtrFieldNilAndValues(t *testing.T) {
	rt := New()
	type obj struct {
		orec Orec
		p    Ptr[int]
	}
	var o obj
	x := 12
	if err := rt.Atomic(func(tx *Tx) error {
		if got := o.p.Load(tx, &o.orec); got != nil {
			t.Errorf("initial pointer = %v, want nil", got)
		}
		o.p.Store(tx, &o.orec, &x)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := o.p.Raw(); got != &x {
		t.Errorf("pointer = %p, want %p", got, &x)
	}
}

func TestValField(t *testing.T) {
	rt := New()
	type obj struct {
		orec Orec
		s    Val[string]
	}
	var o obj
	if err := rt.Atomic(func(tx *Tx) error {
		if got := o.s.Load(tx, &o.orec); got != "" {
			t.Errorf("zero Val = %q, want empty", got)
		}
		o.s.Store(tx, &o.orec, "hello")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := o.s.Raw(); got != "hello" {
		t.Errorf("Val = %q, want hello", got)
	}
}

func TestQuickTransactionalModel(t *testing.T) {
	rt := New()
	f := func(ops []uint8) bool {
		const n = 8
		cells := make([]cell, n)
		model := make([]uint64, n)
		for _, op := range ops {
			i := int(op) % n
			j := int(op/8) % n
			_ = rt.Atomic(func(tx *Tx) error {
				vi := cells[i].v.Load(tx, &cells[i].orec)
				cells[i].v.Store(tx, &cells[i].orec, vi+1)
				if i != j {
					vj := cells[j].v.Load(tx, &cells[j].orec)
					cells[j].v.Store(tx, &cells[j].orec, vj+2)
				}
				return nil
			})
			model[i]++
			if i != j {
				model[j] += 2
			}
		}
		for i := range cells {
			if cells[i].v.Raw() != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWriteWriteConflictSerializes(t *testing.T) {
	// Two goroutines hammering the same cell with read-modify-write
	// transactions must produce exactly the sum of their increments.
	rt := New()
	var c cell
	const goroutines = 8
	const iters = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = rt.Atomic(func(tx *Tx) error {
					v := c.v.Load(tx, &c.orec)
					c.v.Store(tx, &c.orec, v+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if got := c.v.Raw(); got != goroutines*iters {
		t.Errorf("counter = %d, want %d", got, goroutines*iters)
	}
}

func TestMultipleWritesSameFieldUndoOrder(t *testing.T) {
	rt := New()
	var c cell
	c.v.Init(100)
	err := rt.Atomic(func(tx *Tx) error {
		c.v.Store(tx, &c.orec, 1)
		c.v.Store(tx, &c.orec, 2)
		c.v.Store(tx, &c.orec, 3)
		return errors.New("rollback")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := c.v.Raw(); got != 100 {
		t.Errorf("value after rollback = %d, want original 100", got)
	}
}

func TestStartTimestampAdvances(t *testing.T) {
	rt := New()
	var c cell
	var first, second uint64
	_ = rt.Atomic(func(tx *Tx) error {
		first = tx.Start()
		c.v.Store(tx, &c.orec, 1)
		return nil
	})
	_ = rt.Atomic(func(tx *Tx) error {
		second = tx.Start()
		_ = c.v.Load(tx, &c.orec) // must succeed: committed before we began
		return nil
	})
	if second < first {
		t.Errorf("start timestamps went backwards: %d then %d", first, second)
	}
}

func ExampleRuntime_Atomic() {
	rt := New()
	var c cell
	_ = rt.Atomic(func(tx *Tx) error {
		c.v.Store(tx, &c.orec, 42)
		return nil
	})
	fmt.Println(c.v.Raw())
	// Output: 42
}
