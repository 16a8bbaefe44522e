package stm

import (
	"sync"
	"testing"
	"time"
)

// TestAbortReasons checks that the by-reason abort counters classify
// every abort: injected aborts via hooks, acquire/validate conflicts
// under contention, and that the three reasons sum to Aborts when no
// user errors occur (user-error rollbacks carry no reason).
func TestAbortReasons(t *testing.T) {
	rt := New()
	rt.SetHooks(NewAbortInjector(7, 1, 4))
	var c cell
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				_ = rt.Atomic(func(tx *Tx) error {
					c.v.Store(tx, &c.orec, c.v.Load(tx, &c.orec)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	s := rt.Stats()
	if s.Commits != 8000 {
		t.Errorf("commits = %d, want 8000", s.Commits)
	}
	if s.AbortsInjected == 0 {
		t.Error("no injected aborts counted despite the injector")
	}
	if got, want := s.AbortsValidate+s.AbortsAcquire+s.AbortsInjected, s.Aborts; got != want {
		t.Errorf("reason counters sum to %d, want Aborts = %d (%+v)", got, want, s)
	}
	d := s.Sub(Stats{AbortsInjected: 1})
	if d.AbortsInjected != s.AbortsInjected-1 {
		t.Errorf("Sub dropped AbortsInjected: %d", d.AbortsInjected)
	}
}

// TestBackoffNanosAndCommitObserver checks that contended runs bank
// backoff time and that an installed commit observer sees one latency
// per successful commit.
func TestBackoffNanosAndCommitObserver(t *testing.T) {
	rt := New()
	h := &recordingObserver{}
	rt.SetCommitObserver(h)
	var c cell
	var wg sync.WaitGroup
	const workers, per = 4, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = rt.Atomic(func(tx *Tx) error {
					c.v.Store(tx, &c.orec, c.v.Load(tx, &c.orec)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	s := rt.Stats()
	if s.Aborts > 0 && s.BackoffNanos == 0 {
		t.Errorf("aborts %d but zero backoff nanos", s.Aborts)
	}
	h.mu.Lock()
	n := h.n
	h.mu.Unlock()
	if n != workers*per {
		t.Errorf("observer saw %d commits, want %d", n, workers*per)
	}
	rt.SetCommitObserver(nil)
	if err := rt.Atomic(func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	if h.n != n {
		t.Error("observer fired after removal")
	}
	h.mu.Unlock()
}

type recordingObserver struct {
	mu sync.Mutex
	n  int
}

func (r *recordingObserver) ObserveNanos(n int64) {
	if n < 0 || time.Duration(n) > time.Hour {
		panic("implausible latency")
	}
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
}
