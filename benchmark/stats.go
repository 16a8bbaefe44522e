package main

import (
	"math"
	"math/bits"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// quartiles returns the cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive"
// method), which is how the driver judges a metric's spread. It needs
// at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median: the
// driver's noise measure for one metric over a set of runs.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// hist is a fixed-memory latency histogram over nanoseconds: exact
// 1 ns bins below 2048 ns, then 1024 bins per power of two (0.1 %
// resolution) up to ~18 minutes. Recording never allocates, so sampling
// does not perturb the garbage collector of the process under test.
type hist struct {
	bins  []uint32
	total uint64
}

const (
	histLinear  = 2048
	histSub     = 1024
	histOctaves = 30
)

func newHist() *hist { return &hist{bins: make([]uint32, histLinear+histOctaves*histSub)} }

func histBin(ns int64) int {
	if ns < histLinear {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 11 // ns>>shift in [1024, 2048)
	if shift > histOctaves {
		return histLinear + histOctaves*histSub - 1
	}
	return histLinear + (shift-1)*histSub + int(ns>>shift) - histSub
}

// histBounds returns bin b's [lo, hi) range in ns.
func histBounds(b int) (lo, hi float64) {
	if b < histLinear {
		return float64(b), float64(b + 1)
	}
	shift := (b-histLinear)/histSub + 1
	m := int64((b-histLinear)%histSub + histSub)
	return float64(m << shift), float64((m + 1) << shift)
}

func (h *hist) record(ns int64) {
	h.bins[histBin(ns)]++
	h.total++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.total += o.total
}

// quantile returns the q-quantile in ns, interpolating linearly inside
// the bin that holds it, so a distribution concentrated on a few
// integer nanosecond values still yields a continuous estimate.
func (h *hist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := q * float64(h.total)
	var cum float64
	for b, c := range h.bins {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= target {
			lo, hi := histBounds(b)
			return lo + (hi-lo)*(target-cum)/float64(c)
		} else {
			cum = next
		}
	}
	lo, _ := histBounds(len(h.bins) - 1)
	return lo
}
