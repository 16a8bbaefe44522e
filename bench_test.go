package repro

import (
	"math/rand/v2"
	"testing"

	"repro/internal/bench"
	"repro/internal/stm"
	"repro/skiphash"
)

// benchUniverse keeps testing.B runs quick while preserving the paper's
// half-full population shape; skipbench uses the full 10^6 universe.
const benchUniverse = 1 << 16

// BenchmarkFig5 regenerates Figure 5's six workloads as sub-benchmarks:
// fig5<letter>/<map-series>. ns/op is the per-operation latency under
// GOMAXPROCS-way parallelism; the figures' Mops/s follow directly.
func BenchmarkFig5(b *testing.B) {
	for _, letter := range []string{"a", "b", "c", "d", "e", "f"} {
		wl := bench.Fig5Workloads[letter]
		wl.Universe = benchUniverse
		wl = workloadDefaults(wl)
		for _, mf := range bench.Fig5Maps(wl.RangePct == 0) {
			b.Run("fig5"+letter+"/"+mf.Name, func(b *testing.B) {
				runWorkloadBench(b, mf.New(), wl)
			})
		}
	}
}

func workloadDefaults(w bench.Workload) bench.Workload {
	if w.RangeLen == 0 {
		w.RangeLen = 100
	}
	return w
}

func runWorkloadBench(b *testing.B, m bench.Map, wl bench.Workload) {
	if wl.RangePct > 0 && !m.SupportsRange() {
		b.Skip("map does not support range queries")
	}
	bench.Prefill(m, wl.Universe, 7)
	var pairs int
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := m.NewWorker()
		rng := rand.New(rand.NewPCG(rand.Uint64(), 0x1234))
		for pb.Next() {
			die := int(rng.Uint64() % 100)
			k := int64(rng.Uint64() % uint64(wl.Universe))
			switch {
			case die < wl.LookupPct:
				w.Lookup(k)
			case die < wl.LookupPct+wl.UpdatePct:
				if rng.Uint64()&1 == 0 {
					w.Insert(k, k)
				} else {
					w.Remove(k)
				}
			default:
				pairs += w.Range(k, k+wl.RangeLen)
			}
		}
	})
	_ = pairs
}

// BenchmarkFig6 regenerates Figure 6's range-length sweep for the
// two-path skip hash and the strongest baseline at three representative
// lengths: fig6/<map>/len<2^e>. Range queries and updates interleave
// GOMAXPROCS-wide; skipbench fig6 runs the full split-role experiment.
func BenchmarkFig6(b *testing.B) {
	factories := []bench.MapFactory{
		{Name: "skiphash-two-path", New: func() bench.Map { return bench.NewSkipHash("two-path", 0) }},
		{Name: "skiphash-fast-only", New: func() bench.Map { return bench.NewSkipHash("fast", 0) }},
		{Name: "skiphash-slow-only", New: func() bench.Map { return bench.NewSkipHash("slow", 0) }},
		{Name: "skiplist-bundled", New: func() bench.Map { return bench.NewBundleSkip("hwclock") }},
		{Name: "skiplist-vcas", New: func() bench.Map { return bench.NewVcasSkip("hwclock") }},
	}
	for _, ln := range []int64{1 << 4, 1 << 8, 1 << 12} {
		for _, mf := range factories {
			b.Run("fig6/"+mf.Name+"/len"+itoa(ln), func(b *testing.B) {
				wl := bench.Workload{UpdatePct: 50, RangePct: 50, Universe: benchUniverse, RangeLen: ln}
				runWorkloadBench(b, mf.New(), wl)
			})
		}
	}
}

// BenchmarkTable1 regenerates Table 1's abort-rate measurement: a
// fast-path-only skip hash under concurrent updates, reporting
// aborts/query as a benchmark metric for each range length.
func BenchmarkTable1(b *testing.B) {
	for _, ln := range []int64{1 << 10, 1 << 12, 1 << 14} {
		b.Run("table1/len"+itoa(ln), func(b *testing.B) {
			m := bench.NewSkipHash("fast", 0)
			bench.Prefill(m, benchUniverse, 7)
			before := m.RangeStats()
			wl := bench.Workload{UpdatePct: 90, RangePct: 10, Universe: benchUniverse, RangeLen: ln}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := m.NewWorker()
				rng := rand.New(rand.NewPCG(rand.Uint64(), 0x777))
				for pb.Next() {
					die := int(rng.Uint64() % 100)
					k := int64(rng.Uint64() % uint64(wl.Universe))
					if die < wl.UpdatePct {
						if rng.Uint64()&1 == 0 {
							w.Insert(k, k)
						} else {
							w.Remove(k)
						}
					} else {
						w.Range(k, k+wl.RangeLen)
					}
				}
			})
			b.StopTimer()
			s := m.RangeStats().Sub(before)
			if s.FastCommits > 0 {
				b.ReportMetric(float64(s.FastAborts)/float64(s.FastCommits), "aborts/query")
			} else {
				b.ReportMetric(float64(s.FastAborts), "aborts(no-commit)")
			}
		})
	}
}

// BenchmarkAblationClock compares the paper's clock choices (§5.1): the
// monotonic hardware-style clock against the GV1 fetch-and-add clock,
// on the skip hash's small transactions.
func BenchmarkAblationClock(b *testing.B) {
	for _, clk := range []struct {
		name string
		mk   func() stm.Clock
	}{
		{"hwclock", func() stm.Clock { return stm.NewMonotonicClock() }},
		{"gv1", func() stm.Clock { return stm.NewGV1() }},
		{"gv5", func() stm.Clock { return stm.NewGV5() }},
	} {
		b.Run("clock="+clk.name, func(b *testing.B) {
			m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Clock: clk.mk()})
			for k := int64(0); k < benchUniverse; k += 2 {
				m.Insert(k, k)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewPCG(rand.Uint64(), 0x99))
				for pb.Next() {
					k := int64(rng.Uint64() % benchUniverse)
					if rng.Uint64()&1 == 0 {
						m.Insert(k, k)
					} else {
						m.Remove(k)
					}
				}
			})
		})
	}
}

// BenchmarkAblationHashRouting isolates the composition's benefit (§3):
// the same update workload against the skip hash (hash-routed, O(1)
// removes) and the bare STM skip list (O(log n) searches).
func BenchmarkAblationHashRouting(b *testing.B) {
	for _, mf := range []bench.MapFactory{
		{Name: "skiphash", New: func() bench.Map { return bench.NewSkipHash("two-path", 0) }},
		{Name: "stm-skiplist", New: func() bench.Map { return bench.NewStmSkip() }},
	} {
		b.Run("routing="+mf.Name, func(b *testing.B) {
			wl := bench.Workload{UpdatePct: 100, Universe: benchUniverse}
			runWorkloadBench(b, mf.New(), workloadDefaults(wl))
		})
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var digits [20]byte
	i := len(digits)
	for n > 0 {
		i--
		digits[i] = byte('0' + n%10)
		n /= 10
	}
	return string(digits[i:])
}
