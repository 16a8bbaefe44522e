package stm

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestOnPublishCommitOrder: publish hooks fire only for successful
// writing commits, with the commit stamp, before the orecs release —
// so for conflicting transactions, publish order is commit order.
func TestOnPublishSemantics(t *testing.T) {
	rt := New()
	var o Orec
	var f U64

	var stamps []uint64
	var locals []any
	// A committed writer publishes exactly once with a nonzero stamp.
	err := rt.Atomic(func(tx *Tx) error {
		if tx.Local() != nil {
			t.Error("fresh attempt has a non-nil local slot")
		}
		tx.SetLocal("x")
		locals = append(locals, tx.Local())
		f.Store(tx, &o, 1)
		tx.OnPublish(publishFunc(func(stamp uint64) { stamps = append(stamps, stamp) }), nil)
		tx.OnCommit(commitFunc(func() {
			if got := tx.CommitStamp(); got != stamps[len(stamps)-1] {
				t.Errorf("CommitStamp %d != published stamp %d", got, stamps[len(stamps)-1])
			}
		}), nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 1 || stamps[0] == 0 {
		t.Fatalf("publish fired %d times with %v", len(stamps), stamps)
	}
	if locals[0] != "x" {
		t.Fatalf("local slot lost within attempt: %v", locals)
	}

	// A user error discards publish hooks.
	published := false
	sentinel := errors.New("boom")
	if err := rt.Atomic(func(tx *Tx) error {
		f.Store(tx, &o, 2)
		tx.OnPublish(publishFunc(func(uint64) { published = true }), nil)
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Fatalf("user error lost: %v", err)
	}
	if published {
		t.Fatal("publish hook fired for a rolled-back transaction")
	}

	// A read-only commit draws no stamp and publishes nothing.
	_ = rt.Atomic(func(tx *Tx) error {
		_ = f.Load(tx, &o)
		tx.OnPublish(publishFunc(func(uint64) { published = true }), nil)
		return nil
	})
	if published {
		t.Fatal("publish hook fired for a read-only commit")
	}

	// Conflicting writers publish in commit order: while a publish hook
	// runs, the orec is still owned, so a stamp observed there is
	// strictly ordered with any later conflicting commit's stamp.
	var mu sync.Mutex
	var order []uint64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				_ = rt.Atomic(func(tx *Tx) error {
					f.Store(tx, &o, f.Load(tx, &o)+1)
					tx.OnPublish(publishFunc(func(stamp uint64) {
						mu.Lock()
						order = append(order, stamp)
						mu.Unlock()
					}), nil)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if len(order) != 8*200 {
		t.Fatalf("published %d times, want %d", len(order), 8*200)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("conflicting publishes out of stamp order at %d: %d after %d", i, order[i], order[i-1])
		}
	}
}

// TestClockRaise: Raise lifts every later stamp above the floor and
// keeps the clock advancing at its own pace.
func TestClockRaise(t *testing.T) {
	rt := New()
	const floor = uint64(1e12)
	rt.Clock().Raise(floor)
	var o Orec
	var f U64
	if err := rt.Atomic(func(tx *Tx) error {
		if tx.Start() <= floor {
			t.Errorf("start stamp %d not above floor", tx.Start())
		}
		f.Store(tx, &o, 9)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := f.Raw(); got != 9 {
		t.Fatalf("write through raised runtime lost: %d", got)
	}

	t.Run("RaiseAboveEachFloor", func(t *testing.T) {
		c := New().Clock()
		for i, s := range []uint64{0, 50, 10, 1 << 40, 7} {
			c.Raise(s)
			if r := c.Read(); r <= s {
				t.Fatalf("raise %d: Read = %d, not above %d", i, r, s)
			}
			for j := 0; j < 3; j++ {
				if n := c.Next(); n <= s {
					t.Fatalf("raise %d: Next = %d, not above %d", i, n, s)
				}
			}
		}
		// A lower Raise never lowers the offset.
		before := c.off.Load()
		c.Raise(1)
		if after := c.off.Load(); after != before {
			t.Fatalf("lower raise moved the offset: %d then %d", before, after)
		}
	})

	t.Run("RaiseOffsetsMonotonic", func(t *testing.T) {
		// The floor moves the offset, not the stamp: after a raise the
		// clock keeps advancing at its own pace, so two commits in a row
		// do not tie at floor+1.
		c := New().Clock()
		const s = uint64(5e9)
		c.Raise(s)
		a := c.Next()
		time.Sleep(time.Millisecond)
		b := c.Next()
		if a <= s || b-a < uint64(time.Millisecond) {
			t.Fatalf("stamps %d, %d a millisecond apart after raise %d", a, b, s)
		}
	})

	t.Run("ConcurrentRaise", func(t *testing.T) {
		// Raisers and drawers race. Every stamp a goroutine draws after
		// its own Raise(s) returns is above s, and one goroutine's
		// Reads never go backwards. Each raise lands just above the
		// clock, so the offset moves in small steps while other
		// goroutines are mid-draw.
		c := New().Clock()
		const workers, rounds = 4, 20000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				last := uint64(0)
				for i := 0; i < rounds; i++ {
					s := c.Read() + uint64(i%3)
					c.Raise(s)
					if n := c.Next(); n <= s {
						t.Errorf("Next %d after Raise(%d)", n, s)
						return
					}
					r := c.Read()
					if r < last {
						t.Errorf("Read went back: %d after %d", r, last)
						return
					}
					last = r
				}
			}()
		}
		wg.Wait()
	})
}
