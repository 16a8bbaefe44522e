package stm

import (
	"sync/atomic"
	"time"
)

// Clock is a runtime's global commit clock, which orders transactions.
// The paper compares three clocks for the skip hash (§5.1) — the gv1
// fetch-and-add counter, the gv5 lazy counter and an rdtscp hardware
// clock — and runs on rdtscp. Go cannot issue rdtscp, so the clock is
// nanoseconds of monotonic wall-clock time, which shares the property
// the paper exploits: drawing a timestamp writes no shared memory, so
// commits do not contend on a clock cache line.
//
// Unlike rdtscp's cycle granularity, two causally ordered events can in
// principle observe the same nanosecond tick, so readers are strict: a
// version equal to the reader's start time is rejected. A transaction's
// commit timestamp is sampled after all of its orecs are acquired, so
// any commit that could invalidate an in-flight reader's snapshot
// carries a timestamp causally (and therefore numerically, by
// monotonicity) no smaller than the reader's start; strict comparison
// rejects it even on a tie. The cost is an occasional false abort when
// a reader starts on the same tick as an earlier unrelated commit.
//
// Every timestamp is shifted by an offset, which starts at the wall
// time at which the runtime was created (nanoseconds since the Unix
// epoch) and which only Raise moves. The start makes stamps wall-clock
// nanoseconds, so a restarted process draws stamps above every stamp
// its previous incarnation drew or advertised — not only above the
// logged ones — as long as the wall clock has not stepped back by more
// than the downtime. Durable maps raise the offset above every
// recovered stamp, so commits after a restart extend the write-ahead
// log's order even then; replicas raise it to each applied stamp, so a
// promoted replica's commits extend its old primary's order. An offset,
// unlike a clamp to floor+1, keeps stamps advancing at the clock's own
// pace instead of piling onto one tied value.
//
// A Clock exists only inside a Runtime; reach it with Runtime.Clock.
type Clock struct {
	base time.Time
	off  atomic.Uint64
}

// Read returns a start timestamp for a new transaction: no smaller than
// any stamp committed before it, no larger than any stamp drawn after
// it.
func (c *Clock) Read() uint64 { return uint64(time.Since(c.base)) + 1 + c.off.Load() }

// Next returns a commit timestamp for a writing transaction; it is
// drawn after all of the transaction's orecs have been acquired. A
// stamp counts only if no Raise moved the offset while its tick was
// read, so every stamp is the clock's value at one instant — never
// below a Read that returned before Next began — across any number of
// concurrent raises.
func (c *Clock) Next() uint64 {
	for {
		off := c.off.Load()
		n := uint64(time.Since(c.base)) + 1
		if c.off.Load() == off {
			return n + off
		}
	}
}

// Raise lifts the offset so that every Read and Next that starts after
// Raise returns is above s. The offset only grows (concurrent calls are
// safe and monotone), and the monotonic base never runs backwards, so
// one tick read at raise time bounds every later stamp.
func (c *Clock) Raise(s uint64) {
	for {
		cur := c.off.Load()
		need := s + 1 - min(uint64(time.Since(c.base))+1, s+1)
		if need <= cur || c.off.CompareAndSwap(cur, need) {
			return
		}
	}
}
