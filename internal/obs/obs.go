// Package obs is the repository's zero-dependency metrics core:
// atomic counters, fixed-bucket latency histograms striped over
// cacheline-padded cells by the observed value, a registry that
// renders the Prometheus text exposition format, and a slow-op ring
// tracer.
//
// Each registered series is read one way per kind: a counter through a
// func() uint64 (an owned Counter registers its own Value), a gauge
// through a func() float64 (there is no owned gauge type), a histogram
// through its *Histogram. The exposition and the flattened samples are
// two renderings of one walk over the registry.
//
// Everything here is additive instrumentation: metric writes are single
// atomic adds on striped cells, never locks, and no instrumented layer
// puts a metric update on a fast path's shared-write side. The read
// side (scrapes, log lines) pays all aggregation cost. Layers that stay
// dependency-pure (stm, core) count in their own striped cells
// (stm.Stripes) and are instrumented through Func metrics reading their
// stats accessors at scrape time, so their hot paths carry no obs code
// at all.
package obs

import (
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// histStripes is the stripe count of a Histogram. Observations hash to
// a stripe by their value, so concurrent observers with differing
// values touch different cachelines; the render side sums all stripes.
const histStripes = 16

// Histogram is a fixed-bucket histogram over uint64 values (typically
// nanoseconds). Each stripe's cells occupy whole cachelines, so an
// observation is two uncontended atomic adds. Bounds are inclusive
// upper bucket bounds in ascending order; values above the last bound
// land in the implicit +Inf bucket.
type Histogram struct {
	bounds []uint64
	// scale converts stored values to the rendered unit (1e-9 renders
	// nanoseconds as Prometheus-conventional seconds; 1 renders sizes).
	scale  float64
	stride int
	cells  []atomic.Uint64
}

// newHistogram builds an unregistered histogram (the Registry wraps
// this; tests may use it directly).
func newHistogram(bounds []uint64, scale float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be ascending")
		}
	}
	// Per stripe: len(bounds) bucket cells, one +Inf cell, one sum
	// cell, rounded up to whole 64-byte cachelines.
	stride := (len(bounds) + 2 + 7) &^ 7
	return &Histogram{
		bounds: append([]uint64(nil), bounds...),
		scale:  scale,
		stride: stride,
		cells:  make([]atomic.Uint64, stride*histStripes),
	}
}

// Observe records one value. Allocation-free.
func (h *Histogram) Observe(v uint64) {
	// Fibonacci hash of the value picks the stripe: concurrent
	// observers see jittering values, so their adds spread across
	// stripes without any shared round-robin state.
	stripe := int((v * 0x9e3779b97f4a7c15) >> 60)
	base := stripe % histStripes * h.stride
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.cells[base+idx].Add(1)
	h.cells[base+len(h.bounds)+1].Add(v)
}

// ObserveNanos records a latency in nanoseconds (negative clamps to
// zero). It satisfies stm.CommitObserver.
func (h *Histogram) ObserveNanos(n int64) {
	if n < 0 {
		n = 0
	}
	h.Observe(uint64(n))
}

// ObserveSince records the latency since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.ObserveNanos(int64(time.Since(t0)))
}

// snapshot sums the stripes: per-bucket counts (bucket len(bounds) is
// +Inf), their total and the raw value sum.
func (h *Histogram) snapshot() (buckets []uint64, count, sum uint64) {
	buckets = make([]uint64, len(h.bounds)+1)
	for s := 0; s < histStripes; s++ {
		base := s * h.stride
		for i := range buckets {
			buckets[i] += h.cells[base+i].Load()
		}
		sum += h.cells[base+len(h.bounds)+1].Load()
	}
	for _, n := range buckets {
		count += n
	}
	return buckets, count, sum
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	_, n, _ := h.snapshot()
	return n
}

// Sum returns the raw (unscaled) sum of all observed values.
func (h *Histogram) Sum() uint64 {
	_, _, sum := h.snapshot()
	return sum
}

// LatencyBounds are the default latency bucket bounds in nanoseconds:
// 1µs to 2.5s in a 1-2.5-5 decade ladder, rendered as seconds.
var LatencyBounds = []uint64{
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000,
	100_000_000, 250_000_000, 500_000_000, 1_000_000_000, 2_500_000_000,
}

// SizeBounds are power-of-two bucket bounds for size-like histograms
// (batch sizes, run lengths).
var SizeBounds = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
