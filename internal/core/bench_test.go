package core

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/thashmap"
)

const benchUniverse = 1 << 16

func newBenchMap(b *testing.B, cfg Config) *Map[int64, int64] {
	b.Helper()
	m := New[int64, int64](lessInt64, thashmap.Hash64, cfg)
	for k := int64(0); k < benchUniverse; k += 2 {
		m.Insert(k, k)
	}
	b.ResetTimer()
	return m
}

func BenchmarkLookupHit(b *testing.B) {
	m := newBenchMap(b, Config{})
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(rand.Uint64(), 1))
		for pb.Next() {
			m.Lookup(int64(rng.Uint64()%benchUniverse) &^ 1)
		}
	})
}

func BenchmarkLookupMiss(b *testing.B) {
	m := newBenchMap(b, Config{})
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(rand.Uint64(), 2))
		for pb.Next() {
			m.Lookup(int64(rng.Uint64()%benchUniverse) | 1)
		}
	})
}

func BenchmarkInsertRemove(b *testing.B) {
	m := newBenchMap(b, Config{})
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(rand.Uint64(), 3))
		for pb.Next() {
			k := int64(rng.Uint64() % benchUniverse)
			if rng.Uint64()&1 == 0 {
				m.Insert(k, k)
			} else {
				m.Remove(k)
			}
		}
	})
}

func BenchmarkCeilAbsent(b *testing.B) {
	// Absent-key point queries pay the O(log n) tower descent.
	m := newBenchMap(b, Config{})
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(rand.Uint64(), 4))
		for pb.Next() {
			m.Ceil(int64(rng.Uint64()%benchUniverse) | 1)
		}
	})
}

// BenchmarkDescentAbsent prices the tower descent where it decides the
// cost: Ceil on absent keys from one goroutine over 2^19 keys inserted in
// random order, so the towers outgrow the cache and each node sits
// wherever the heap put it. (BenchmarkCeilAbsent's 2^15 sequential keys
// fit in cache.)
func BenchmarkDescentAbsent(b *testing.B) {
	const keys = 1 << 19
	rng := rand.New(rand.NewPCG(19, 9))
	m := New[int64, int64](lessInt64, thashmap.Hash64, Config{})
	for _, i := range rng.Perm(keys) {
		m.Insert(2*int64(i), 0)
	}
	// One sub-benchmark, so the map is built once, not once per b.N.
	b.Run("keys=2^19", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Ceil(2*int64(rng.Uint64()%keys) | 1)
		}
	})
}

func BenchmarkRange100(b *testing.B) {
	benchRange100(b, newBenchMap(b, Config{}))
}

// BenchmarkRange100Loaded prices node placement for range scans over
// BenchmarkRange100's keys: "loaded" bulk-builds the map with LoadSorted,
// so nodes are allocated in key order; "grown" inserts the same keys in
// random order, so a level-0 step lands wherever the heap put its node.
// (BenchmarkRange100's own map inserts in ascending order.)
func BenchmarkRange100Loaded(b *testing.B) {
	keys := make([]int64, 0, benchUniverse/2)
	for k := int64(0); k < benchUniverse; k += 2 {
		keys = append(keys, k)
	}
	b.Run("loaded", func(b *testing.B) {
		m := New[int64, int64](lessInt64, thashmap.Hash64, Config{})
		m.LoadSorted(func(yield func(int64, int64) bool) {
			for _, k := range keys {
				if !yield(k, k) {
					return
				}
			}
		})
		b.ResetTimer()
		benchRange100(b, m)
	})
	b.Run("grown", func(b *testing.B) {
		m := New[int64, int64](lessInt64, thashmap.Hash64, Config{})
		for _, i := range rand.Perm(len(keys)) {
			m.Insert(keys[i], keys[i])
		}
		b.ResetTimer()
		benchRange100(b, m)
	})
}

func benchRange100(b *testing.B, m *Map[int64, int64]) {
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(rand.Uint64(), 5))
		var buf []Pair[int64, int64]
		for pb.Next() {
			l := int64(rng.Uint64() % benchUniverse)
			buf = m.Range(l, l+100, buf[:0])
		}
	})
}

func BenchmarkRangeSlowPath(b *testing.B) {
	m := newBenchMap(b, Config{SlowOnly: true})
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(rand.Uint64(), 6))
		var buf []Pair[int64, int64]
		for pb.Next() {
			l := int64(rng.Uint64() % benchUniverse)
			buf = m.Range(l, l+100, buf[:0])
		}
	})
}

func BenchmarkAtomicPairToggle(b *testing.B) {
	// The batch API's cost: two lookups + two updates in one tx.
	m := newBenchMap(b, Config{})
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(rand.Uint64(), 7))
		for pb.Next() {
			k := int64(rng.Uint64() % (benchUniverse / 2))
			_ = m.Atomic(func(op *Txn[int64, int64]) error {
				if op.Contains(k) {
					op.Remove(k)
					op.Insert(k+benchUniverse/2, k)
				} else {
					op.Remove(k + benchUniverse/2)
					op.Insert(k, k)
				}
				return nil
			})
		}
	})
}

// BenchmarkAtomicInsertRun prices the served daemon's coalesced run: two
// goroutines each commit Atomic batches that insert 64 random keys from a
// 2^17 universe, half of it present, then remove the ones they inserted,
// so the size holds. An op is one batch. aborts/commit, from the
// runtime's stats, is what the runs' overlapping read sets cost; the
// acquire and validate aborts and the backoff nanoseconds per commit
// split it by cause.
func BenchmarkAtomicInsertRun(b *testing.B) {
	const universe, run, workers = 1 << 17, 64, 2
	m := New[int64, int64](lessInt64, thashmap.Hash64, Config{})
	for k := int64(0); k < universe; k += 2 {
		m.Insert(k, k)
	}
	before := m.Runtime().Stats()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w < b.N%workers {
			n++
		}
		wg.Add(1)
		go func(seed uint64, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 9))
			keys := make([]int64, run)
			inserted := make([]int64, 0, run)
			for i := 0; i < n; i++ {
				for j := range keys {
					keys[j] = int64(rng.Uint64() % universe)
				}
				_ = m.Atomic(func(op *Txn[int64, int64]) error {
					inserted = inserted[:0]
					for _, k := range keys {
						if op.Insert(k, k) {
							inserted = append(inserted, k)
						}
					}
					for _, k := range inserted {
						op.Remove(k)
					}
					return nil
				})
			}
		}(uint64(w), n)
	}
	wg.Wait()
	b.StopTimer()
	d := m.Runtime().Stats().Sub(before)
	if c := float64(d.Commits); c > 0 {
		b.ReportMetric(float64(d.Aborts)/c, "aborts/commit")
		b.ReportMetric(float64(d.AbortsAcquire)/c, "acquire-aborts/commit")
		b.ReportMetric(float64(d.AbortsValidate)/c, "validate-aborts/commit")
		b.ReportMetric(float64(d.BackoffNanos)/c, "backoff-ns/commit")
	}
}

func BenchmarkAscend(b *testing.B) {
	m := newBenchMap(b, Config{})
	for i := 0; i < b.N; i++ {
		count := 0
		m.AscendFrom(0, func(k, v int64) bool {
			count++
			return count < 1024
		})
	}
}

// chainDepths reports, exactly, how many chain nodes an index probe
// dereferences on m's current bucket chains: a hit on the key at position
// i of its chain reads i nodes (averaged over every indexed key), and a
// miss reads its bucket's whole chain (averaged over the absent keys).
// The map must be quiescent.
func chainDepths(m *Map[int64, int64], absent []int64) (perHit, perMiss float64) {
	lengths := make([]int, len(m.index.buckets))
	hitNodes, keys := 0, 0
	m.index.forEachSlow(func(bucket int, _ *node[int64, int64]) bool {
		lengths[bucket]++
		hitNodes += lengths[bucket]
		keys++
		return true
	})
	missNodes := 0
	for _, k := range absent {
		missNodes += lengths[m.index.hash(k)%uint64(len(lengths))]
	}
	return float64(hitNodes) / float64(keys), float64(missNodes) / float64(len(absent))
}

// BenchmarkLookupLoad prices the index's load factor: Lookup hits and
// misses on 5×10^5 keys (the even half of a 10^6 universe, as the
// in-process benchmark workloads hold) at the default bucket count, the
// paper's, and 2^20. Each row also reports the exact chain nodes a probe
// reads on that table (chainDepths).
func BenchmarkLookupLoad(b *testing.B) {
	const universe = 1_000_000
	absent := make([]int64, 0, universe/2)
	for k := int64(1); k < universe; k += 2 {
		absent = append(absent, k)
	}
	for _, buckets := range []int{131071, 714341, 1 << 20} {
		m := New[int64, int64](lessInt64, thashmap.Hash64, Config{Buckets: buckets})
		m.LoadSorted(func(yield func(int64, int64) bool) {
			for k := int64(0); k < universe; k += 2 {
				if !yield(k, k) {
					return
				}
			}
		})
		perHit, perMiss := chainDepths(m, absent)
		for _, c := range []struct {
			name  string
			odd   int64
			nodes float64
		}{{"hit", 0, perHit}, {"miss", 1, perMiss}} {
			b.Run(fmt.Sprintf("buckets=%d/%s", buckets, c.name), func(b *testing.B) {
				rng := rand.New(rand.NewPCG(uint64(buckets), 8))
				for i := 0; i < b.N; i++ {
					if _, ok := m.Lookup(int64(rng.Uint64()%universe)&^1 | c.odd); ok == (c.odd == 1) {
						b.Fatal("lookup answered the wrong way")
					}
				}
				b.ReportMetric(c.nodes, "nodes/probe")
			})
		}
	}
}
