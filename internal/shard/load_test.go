package shard_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestLoadSorted bulk-loads the map shard.New builds at GOMAXPROCS 1,
// 2 and 8: it must pass its invariants, every key must read back, and a
// full Range must return the loaded order, both right after the load
// and after a round of writes.
func TestLoadSorted(t *testing.T) {
	const n = 10_000
	for _, procs := range []int{1, 2, 8} {
		atProcs(t, procs, func(t *testing.T) {
			s := newInt64(core.Config{MaxLevel: 8})
			defer s.Close()
			model := make(map[int64]int64, n)
			s.LoadSorted(func(yield func(int64, int64) bool) {
				for k := int64(0); k < 2*n; k += 2 {
					model[k] = -k
					if !yield(k, -k) {
						return
					}
				}
			})
			check := func(when string) {
				t.Helper()
				if err := s.CheckInvariants(core.CheckOptions{}); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				for k, want := range model {
					if v, ok := s.Lookup(k); !ok || v != want {
						t.Fatalf("%s: Lookup(%d) = %d,%v want %d", when, k, v, ok, want)
					}
				}
				keys := make([]int64, 0, len(model))
				for k := range model {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				got := s.Range(-1, 2*n, nil)
				if len(got) != len(keys) {
					t.Fatalf("%s: full Range has %d pairs, want %d", when, len(got), len(keys))
				}
				for i, p := range got {
					if p.Key != keys[i] || p.Val != model[p.Key] {
						t.Fatalf("%s: Range[%d] = %v, want key %d", when, i, p, keys[i])
					}
				}
			}
			check("after load")

			rng := rand.New(rand.NewPCG(uint64(procs), 1))
			for i := 0; i < 4000; i++ {
				k := rng.Int64N(2 * n)
				if rng.IntN(2) == 0 {
					if s.Insert(k, -k) {
						model[k] = -k
					}
				} else if s.Remove(k) {
					delete(model, k)
				}
			}
			check("after writes")
		})
	}
}
