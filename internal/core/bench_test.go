package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/thashmap"
)

const benchUniverse = 1 << 16

func newBenchMap(b *testing.B, cfg Config) *Map[int64, int64] {
	b.Helper()
	m := New[int64, int64](lessInt64, thashmap.Hash64, cfg)
	h := m.NewHandle()
	for k := int64(0); k < benchUniverse; k += 2 {
		h.Insert(k, k)
	}
	b.ResetTimer()
	return m
}

func BenchmarkLookupHit(b *testing.B) {
	m := newBenchMap(b, Config{})
	b.RunParallel(func(pb *testing.PB) {
		h := m.NewHandle()
		rng := rand.New(rand.NewPCG(rand.Uint64(), 1))
		for pb.Next() {
			h.Lookup(int64(rng.Uint64()%benchUniverse) &^ 1)
		}
	})
}

func BenchmarkLookupMiss(b *testing.B) {
	m := newBenchMap(b, Config{})
	b.RunParallel(func(pb *testing.PB) {
		h := m.NewHandle()
		rng := rand.New(rand.NewPCG(rand.Uint64(), 2))
		for pb.Next() {
			h.Lookup(int64(rng.Uint64()%benchUniverse) | 1)
		}
	})
}

func BenchmarkInsertRemove(b *testing.B) {
	m := newBenchMap(b, Config{})
	b.RunParallel(func(pb *testing.PB) {
		h := m.NewHandle()
		rng := rand.New(rand.NewPCG(rand.Uint64(), 3))
		for pb.Next() {
			k := int64(rng.Uint64() % benchUniverse)
			if rng.Uint64()&1 == 0 {
				h.Insert(k, k)
			} else {
				h.Remove(k)
			}
		}
	})
}

func BenchmarkCeilAbsent(b *testing.B) {
	// Absent-key point queries pay the O(log n) tower descent.
	m := newBenchMap(b, Config{})
	b.RunParallel(func(pb *testing.PB) {
		h := m.NewHandle()
		rng := rand.New(rand.NewPCG(rand.Uint64(), 4))
		for pb.Next() {
			h.Ceil(int64(rng.Uint64()%benchUniverse) | 1)
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
		h := m.NewHandle()
		for _, i := range rand.Perm(len(keys)) {
			h.Insert(keys[i], keys[i])
		}
		b.ResetTimer()
		benchRange100(b, m)
	})
}

func benchRange100(b *testing.B, m *Map[int64, int64]) {
	b.RunParallel(func(pb *testing.PB) {
		h := m.NewHandle()
		rng := rand.New(rand.NewPCG(rand.Uint64(), 5))
		var buf []Pair[int64, int64]
		for pb.Next() {
			l := int64(rng.Uint64() % benchUniverse)
			buf = h.Range(l, l+100, buf[:0])
		}
	})
}

func BenchmarkRangeSlowPath(b *testing.B) {
	m := newBenchMap(b, Config{SlowOnly: true})
	b.RunParallel(func(pb *testing.PB) {
		h := m.NewHandle()
		rng := rand.New(rand.NewPCG(rand.Uint64(), 6))
		var buf []Pair[int64, int64]
		for pb.Next() {
			l := int64(rng.Uint64() % benchUniverse)
			buf = h.Range(l, l+100, buf[:0])
		}
	})
}

func BenchmarkAtomicPairToggle(b *testing.B) {
	// The batch API's cost: two lookups + two updates in one tx.
	m := newBenchMap(b, Config{})
	b.RunParallel(func(pb *testing.PB) {
		h := m.NewHandle()
		rng := rand.New(rand.NewPCG(rand.Uint64(), 7))
		for pb.Next() {
			k := int64(rng.Uint64() % (benchUniverse / 2))
			_ = h.Atomic(func(op *Txn[int64, int64]) error {
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

func BenchmarkAscend(b *testing.B) {
	m := newBenchMap(b, Config{})
	h := m.NewHandle()
	for i := 0; i < b.N; i++ {
		count := 0
		h.AscendFrom(0, func(k, v int64) bool {
			count++
			return count < 1024
		})
	}
}
