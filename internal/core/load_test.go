package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/thashmap"
)

// seqOf yields keys as pairs (k, 3k), in the order given.
func seqOf(keys ...int64) func(yield func(int64, int64) bool) {
	return func(yield func(int64, int64) bool) {
		for _, k := range keys {
			if !yield(k, 3*k) {
				return
			}
		}
	}
}

// sortedModel is the reference for the ordered queries: the model's
// keys, ascending, each with value 3k.
type sortedModel []int64

// first returns the index of the first key for which above holds (keys
// are ascending, so above is monotone), or len(s).
func (s sortedModel) first(above func(int64) bool) int {
	return sort.Search(len(s), func(i int) bool { return above(s[i]) })
}

func (s sortedModel) at(i int) (int64, int64, bool) {
	if i < 0 || i >= len(s) {
		return 0, 0, false
	}
	return s[i], 3 * s[i], true
}

func (s sortedModel) ceil(k int64) (int64, int64, bool) {
	return s.at(s.first(func(x int64) bool { return x >= k }))
}
func (s sortedModel) succ(k int64) (int64, int64, bool) {
	return s.at(s.first(func(x int64) bool { return x > k }))
}
func (s sortedModel) floor(k int64) (int64, int64, bool) {
	return s.at(s.first(func(x int64) bool { return x > k }) - 1)
}
func (s sortedModel) pred(k int64) (int64, int64, bool) {
	return s.at(s.first(func(x int64) bool { return x >= k }) - 1)
}

func (s sortedModel) rangeOf(l, r int64) []Pair[int64, int64] {
	var out []Pair[int64, int64]
	for _, k := range s[s.first(func(x int64) bool { return x >= l }):] {
		if k > r {
			break
		}
		out = append(out, Pair[int64, int64]{Key: k, Val: 3 * k})
	}
	return out
}

// checkOrdered compares Ceil, Floor, Succ, Pred and Range against the
// model, at random probes over [-2, hi+2] and at the edges.
func checkOrdered(t *testing.T, h *Handle[int64, int64], model map[int64]int64, hi int64, rng *rand.Rand) {
	t.Helper()
	s := sortedModel(sortedKeys(model))
	probes := []int64{-2, -1, 0, 1, hi - 1, hi, hi + 1, hi + 2}
	for i := 0; i < 2000; i++ {
		probes = append(probes, rng.Int64N(hi+5)-2)
	}
	queries := []struct {
		name      string
		got, want func(int64) (int64, int64, bool)
	}{
		{"Ceil", h.Ceil, s.ceil},
		{"Floor", h.Floor, s.floor},
		{"Succ", h.Succ, s.succ},
		{"Pred", h.Pred, s.pred},
	}
	for _, k := range probes {
		for _, q := range queries {
			gk, gv, gok := q.got(k)
			wk, wv, wok := q.want(k)
			if gk != wk || gv != wv || gok != wok {
				t.Fatalf("%s(%d) = %d,%d,%v want %d,%d,%v", q.name, k, gk, gv, gok, wk, wv, wok)
			}
		}
	}
	for i := 0; i < 50; i++ {
		l := rng.Int64N(hi+5) - 2
		r := l + rng.Int64N(300)
		if got, want := h.Range(l, r, nil), s.rangeOf(l, r); !slices.Equal(got, want) {
			t.Fatalf("Range(%d, %d): %d pairs, want %d", l, r, len(got), len(want))
		}
	}
	if got, want := h.Range(-2, hi+2, nil), s.rangeOf(-2, hi+2); !slices.Equal(got, want) {
		t.Fatalf("full Range: %d pairs, want %d", len(got), len(want))
	}
}

// churnLoaded runs concurrent inserts, removes and slow-path ranges over
// a loaded map — removals of loaded nodes while a slow range is in
// flight are what defer against their iTime of 0 — and folds each
// worker's effect into model. Worker w owns the keys congruent to w mod
// workers, so the end state is exact.
func churnLoaded(t *testing.T, m *Map[int64, int64], model map[int64]int64, hi int64) {
	t.Helper()
	const workers, ops = 4, 2000
	owned := make([]map[int64]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		owned[w] = make(map[int64]bool)
		for k := range model {
			if k%workers == int64(w) {
				owned[w][k] = true
			}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.NewHandle()
			defer h.Close()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			var buf []Pair[int64, int64]
			for i := 0; i < ops; i++ {
				k := rng.Int64N(hi/workers)*workers + int64(w) // < hi
				switch op := rng.IntN(10); {
				case op < 4:
					if h.Insert(k, 3*k) == owned[w][k] {
						t.Errorf("Insert(%d) disagrees with the model", k)
						return
					}
					owned[w][k] = true
				case op < 8:
					if h.Remove(k) != owned[w][k] {
						t.Errorf("Remove(%d) disagrees with the model", k)
						return
					}
					delete(owned[w], k)
				default:
					buf = m.rangeSlow(h, k, k+64, buf[:0])
					for j, p := range buf {
						if p.Val != 3*p.Key || p.Key < k || p.Key > k+64 || (j > 0 && buf[j-1].Key >= p.Key) {
							t.Errorf("slow Range(%d, %d) returned %v", k, k+64, buf)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	clear(model)
	for _, o := range owned {
		for k := range o {
			model[k] = 3 * k
		}
	}
}

// TestLoadSorted bulk-loads maps of several sizes and checks the result
// against a model before and after concurrent churn: invariants, every
// key on both read paths, and the ordered queries.
func TestLoadSorted(t *testing.T) {
	for _, n := range []int{0, 1, 10_000, 100_000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			m := New[int64, int64](lessInt64, thashmap.Hash64, Config{MaxLevel: 8, Buckets: 1021})
			keys := make([]int64, n)
			model := make(map[int64]int64, n)
			for i := range keys {
				keys[i] = int64(2 * i)
				model[keys[i]] = 3 * keys[i]
			}
			hi := max(int64(2*n), 64)
			m.LoadSorted(seqOf(keys...))
			if err := m.CheckInvariants(CheckOptions{}); err != nil {
				t.Fatalf("after load: %v", err)
			}
			if got := m.SizeSlow(); got != n {
				t.Fatalf("SizeSlow = %d, want %d", got, n)
			}
			h := m.NewHandle()
			defer h.Close()
			for k, want := range model {
				if v, present, answered := m.lookupFast(k); !answered || !present || v != want {
					t.Fatalf("fast Lookup(%d) = %d,%v answered=%v want %d", k, v, present, answered, want)
				}
				var v int64
				var ok bool
				_ = h.Atomic(func(op *Txn[int64, int64]) error {
					v, ok = op.Lookup(k)
					return nil
				})
				if !ok || v != want {
					t.Fatalf("transactional Lookup(%d) = %d,%v want %d", k, v, ok, want)
				}
			}
			rng := rand.New(rand.NewPCG(uint64(n), 1))
			checkOrdered(t, h, model, hi, rng)

			churnLoaded(t, m, model, hi)
			if err := m.CheckInvariants(CheckOptions{}); err != nil {
				t.Fatalf("after churn: %v", err)
			}
			if got := m.SizeSlow(); got != len(model) {
				t.Fatalf("after churn SizeSlow = %d, want %d", got, len(model))
			}
			checkOrdered(t, h, model, hi, rng)
		})
	}
}

// TestLoadSortedPanics: loading into a non-empty map and loading keys
// out of order are programming errors.
func TestLoadSortedPanics(t *testing.T) {
	cases := []struct {
		name string
		load func(m *Map[int64, int64])
	}{
		{"non-empty map", func(m *Map[int64, int64]) {
			h := m.NewHandle()
			defer h.Close()
			h.Insert(5, 15)
			m.LoadSorted(seqOf(1, 2))
		}},
		{"descending keys", func(m *Map[int64, int64]) { m.LoadSorted(seqOf(1, 3, 2)) }},
		{"repeated key", func(m *Map[int64, int64]) { m.LoadSorted(seqOf(1, 2, 2)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("LoadSorted did not panic")
				}
			}()
			c.load(newTestMap(t, Config{MaxLevel: 8}))
		})
	}
}
