package stm

import (
	"sync/atomic"
	"unsafe"
)

// stripeBits sets the number of cells in a Stripes, 1<<stripeBits.
const stripeBits = 5

// Stripes is where a layer keeps its hot-path counts: a fixed array of
// cells, each a struct of atomic counters that its layer pads to whole
// cache lines with at least 56 bytes after the counters. The array may
// start anywhere up to 56 bytes into a line, so that padding is what
// keeps any two cells' counters off a common line. A goroutine bumps
// the cell Local picks for it; readers sum every cell through Cells,
// which allocates nothing. The counts live in no pooled or per-operation
// object, so nothing has to keep such an object alive to read them. The
// zero value is ready to use.
type Stripes[C any] struct {
	cells [1 << stripeBits]C
}

// Local returns the calling goroutine's cell, picked by a Fibonacci
// hash of the goroutine's stack address. The pick keeps no state, a
// goroutine keeps bumping the same cell, and two goroutines share one
// only by chance. A pick by key would put every core working on a hot
// key on one counter line, which their reads otherwise only share.
func (s *Stripes[C]) Local() *C {
	var here byte
	// Goroutine stacks are at least 2 KiB apart; drop the bits below.
	h := uint64(uintptr(unsafe.Pointer(&here)) >> 11)
	return &s.cells[h*0x9e3779b97f4a7c15>>(64-stripeBits)]
}

// Cells returns every cell, for the sums.
func (s *Stripes[C]) Cells() []C { return s.cells[:] }

// Counters is one cell of a runtime's striped counters; Runtime.Stats
// sums them. A transaction counts its commits, aborts, user error and
// backoff in the cell run picked when it started; a fast read counts
// its outcome in the cell LocalCounters picks.
type Counters struct {
	commits         atomic.Uint64
	readOnlyCommits atomic.Uint64
	// aborts counts rollbacks by reason; reasonNone are the rollbacks of
	// a user error or a panic.
	aborts        [numReasons]atomic.Uint64
	userErrors    atomic.Uint64
	backoffNanos  atomic.Uint64
	fastHits      atomic.Uint64
	fastFallbacks atomic.Uint64
	_             [112]byte // 56+ bytes of padding, to three cache lines
}

// FastReadHit counts a point read answered on the fast path (no
// transaction, no orec acquired).
func (c *Counters) FastReadHit() { c.fastHits.Add(1) }

// FastReadFallback counts a fast-path attempt that observed a locked
// orec or a failed revalidation and fell back to a full transaction.
func (c *Counters) FastReadFallback() { c.fastFallbacks.Add(1) }

// LocalCounters returns the calling goroutine's counter cell (see
// Stripes.Local).
func (rt *Runtime) LocalCounters() *Counters { return rt.counters.Local() }
