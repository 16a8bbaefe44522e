package stm

import (
	"sync/atomic"
	"time"
)

// Clock is the global commit clock used to order transactions. The paper
// evaluates three options for the skip hash (§5.1): the gv1 fetch-and-add
// counter, the gv5 lazy counter, and an rdtscp-based hardware clock. All
// three are provided here; the hardware clock is simulated with Go's
// monotonic wall clock (see MonotonicClock for the substitution argument).
type Clock interface {
	// Read returns a start timestamp for a new transaction. Every value
	// committed before the transaction began must carry a version that
	// Read's result admits (strictly smaller when Strict, otherwise
	// smaller-or-equal).
	Read() uint64
	// Next returns a commit timestamp for a writing transaction. It is
	// invoked after all of the transaction's orecs have been acquired.
	Next() uint64
	// OnAbort notifies the clock that a transaction aborted because it
	// observed a version newer than its start time. Lazy clocks (GV5)
	// use this to advance; others ignore it.
	OnAbort()
	// Strict reports whether readers must reject versions equal to
	// their start time. Clocks whose Next results are not globally
	// unique-and-ordered by happens-before (the monotonic clock) return
	// true; fetch-and-add clocks return false, admitting equality as in
	// classic TL2.
	Strict() bool
	// Name identifies the clock in benchmark output.
	Name() string
}

// GV1 is the classic TL2 global-version clock: a single fetch-and-add
// counter. It is correct and simple but serializes all writer commits on
// one cache line; the paper reports it "did not scale well for the skip
// hash's small transactions".
type GV1 struct {
	counter atomic.Uint64
}

// NewGV1 returns a fetch-and-add commit clock.
func NewGV1() *GV1 { return &GV1{} }

// Read returns the current clock value.
func (c *GV1) Read() uint64 { return c.counter.Load() }

// Next atomically increments the clock and returns the new value.
func (c *GV1) Next() uint64 { return c.counter.Add(1) }

// OnAbort is a no-op for GV1.
func (c *GV1) OnAbort() {}

// Strict reports false: fetch-and-add timestamps are unique, so a version
// equal to the start time can only come from a commit that happened
// before the start was sampled.
func (c *GV1) Strict() bool { return false }

// Name returns "gv1".
func (c *GV1) Name() string { return "gv1" }

// GV5 is the lazy global-version clock: writers stamp orecs with
// counter+1 without incrementing the counter, trading increased false
// aborts for reduced clock contention. The counter only advances when an
// abort caused by a too-new version is reported, bounding the staleness.
type GV5 struct {
	counter atomic.Uint64
}

// NewGV5 returns a lazy commit clock.
func NewGV5() *GV5 { return &GV5{} }

// Read returns the current clock value.
func (c *GV5) Read() uint64 { return c.counter.Load() }

// Next returns counter+1 without advancing the counter.
func (c *GV5) Next() uint64 { return c.counter.Load() + 1 }

// OnAbort advances the counter so that retries observe a fresh start
// time and stop aborting on the same stamped version.
func (c *GV5) OnAbort() { c.counter.Add(1) }

// Strict reports false. GV5 commit stamps are counter+1, which always
// exceeds the start time of any concurrently running reader, so a version
// equal to a reader's start time must come from an already-released
// commit observed through the lazily advanced counter.
func (c *GV5) Strict() bool { return false }

// Name returns "gv5".
func (c *GV5) Name() string { return "gv5" }

// MonotonicClock stands in for the paper's rdtscp hardware timestamp
// counter. Go cannot issue rdtscp directly, so commit timestamps are
// nanoseconds of monotonic wall-clock time, which shares the property the
// paper exploits: drawing a timestamp does not write shared memory, so
// commits do not contend on a clock cache line.
//
// Unlike rdtscp's cycle granularity, two causally ordered events can in
// principle observe the same nanosecond tick. The runtime compensates by
// making readers strict (Strict returns true): a version equal to the
// reader's start time is rejected. A transaction's commit timestamp is
// sampled after all of its orecs are acquired, so any commit that could
// invalidate an in-flight reader's snapshot carries a timestamp causally
// (and therefore numerically, by monotonicity) no smaller than the
// reader's start; strict comparison rejects it even on a tie. The cost is
// an occasional false abort when a reader starts on the same tick as an
// earlier unrelated commit.
type MonotonicClock struct {
	base time.Time
}

// NewMonotonicClock returns a hardware-style commit clock backed by the
// monotonic wall clock.
func NewMonotonicClock() *MonotonicClock {
	return &MonotonicClock{base: time.Now()}
}

// FloorClock shifts every timestamp of an inner clock above a floor by
// adding an offset. Durable maps use it after crash recovery: commit
// stamps order write-ahead-log records, so stamps drawn after a restart
// must exceed every stamp already in the log, no matter which clock
// flavor backs the runtime or how long the process was down. Replicas
// use it live: Raise lifts the floor to each applied stamp, so a
// promoted replica's commits extend its old primary's order. An offset,
// unlike a clamp to floor+1, preserves the inner clock's ordering,
// uniqueness and strictness: stamps keep advancing at the inner clock's
// pace instead of piling onto one tied value.
type FloorClock struct {
	inner Clock
	off   atomic.Uint64
}

// NewFloorClock wraps inner so all of its commit stamps exceed floor. A
// zero floor returns inner unwrapped.
func NewFloorClock(inner Clock, floor uint64) Clock {
	if floor == 0 {
		return inner
	}
	c := NewRaisableClock(inner)
	c.off.Store(floor)
	return c
}

// NewRaisableClock wraps inner at offset zero, for a floor that Raise
// lifts while the clock is in use.
func NewRaisableClock(inner Clock) *FloorClock { return &FloorClock{inner: inner} }

// Raise lifts the offset so that every Read and Next that starts after
// Raise returns is above s. The offset only grows (concurrent calls are
// safe and monotone), and the inner clock never runs backwards, so one
// inner read at raise time bounds every later stamp.
func (c *FloorClock) Raise(s uint64) {
	for {
		cur := c.off.Load()
		need := s + 1 - min(c.inner.Read(), s+1)
		if need <= cur || c.off.CompareAndSwap(cur, need) {
			return
		}
	}
}

// Read returns the inner start timestamp shifted by the offset.
func (c *FloorClock) Read() uint64 { return c.inner.Read() + c.off.Load() }

// Next returns the inner commit timestamp shifted by the offset. A
// stamp counts only if no Raise moved the offset while the inner stamp
// was drawn: every inner stamp drawn under a larger offset was drawn
// after that offset was set, so stamps stay unique when the inner
// clock's are, across any number of concurrent raises.
func (c *FloorClock) Next() uint64 {
	for {
		off := c.off.Load()
		n := c.inner.Next()
		if c.off.Load() == off {
			return n + off
		}
	}
}

// OnAbort delegates to the inner clock.
func (c *FloorClock) OnAbort() { c.inner.OnAbort() }

// Strict delegates to the inner clock (the offset preserves both the
// uniqueness and the tie behavior strictness compensates for).
func (c *FloorClock) Strict() bool { return c.inner.Strict() }

// Name reports the inner clock's name; the floor is a recovery detail,
// not a clock flavor, so benchmark series names stay stable.
func (c *FloorClock) Name() string { return c.inner.Name() }

// Read returns the current monotonic timestamp in nanoseconds.
func (c *MonotonicClock) Read() uint64 { return uint64(time.Since(c.base)) + 1 }

// Next returns the current monotonic timestamp in nanoseconds.
func (c *MonotonicClock) Next() uint64 { return uint64(time.Since(c.base)) + 1 }

// OnAbort is a no-op for the monotonic clock.
func (c *MonotonicClock) OnAbort() {}

// Strict reports true: readers reject versions equal to their start time
// because nanosecond ticks are not unique.
func (c *MonotonicClock) Strict() bool { return true }

// Name returns "hwclock".
func (c *MonotonicClock) Name() string { return "hwclock" }
