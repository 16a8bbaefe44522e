package core

import (
	"math"
	"math/rand/v2"
	"testing"
)

// heightShare is the probability that heightOf maps a uniform word to
// height h: (3/4)(1/4)^(h-1), the geometric distribution with p = 1/4.
func heightShare(h int) float64 { return 0.75 * math.Pow(0.25, float64(h-1)) }

// checkHeightLaw fails t when a histogram of n heights (hist[h] nodes of
// height h) strays more than k standard deviations from heightShare at
// any height 1..6.
func checkHeightLaw(t *testing.T, what string, hist []int, n int, k float64) {
	t.Helper()
	for h := 1; h <= 6; h++ {
		p := heightShare(h)
		mean := p * float64(n)
		sigma := math.Sqrt(float64(n) * p * (1 - p))
		if d := math.Abs(float64(hist[h]) - mean); d > k*sigma {
			t.Errorf("%s: %d of %d nodes have height %d, want %.0f ± %.0f (%gσ)", what, hist[h], n, h, mean, k*sigma, k)
		}
	}
}

// TestHeightDistribution pins the tower shape: heights follow the
// geometric distribution with p = 1/4 (three nodes in four are the bare
// header), capped at MaxLevel, for nodes an insert draws and for nodes
// LoadSorted builds.
func TestHeightDistribution(t *testing.T) {
	t.Run("draws", func(t *testing.T) {
		// The law is checked on a seeded stream, which keeps the 4σ
		// bounds deterministic (the map's own source would fail them
		// about once in 10^3 runs); the map's draws are checked against
		// its MaxLevel.
		const draws = 1 << 20
		const maxLevel = 20
		m := newTestMap(t, Config{})
		rng := rand.New(rand.NewPCG(41, 4))
		hist := make([]int, maxHeight+1)
		for i := 0; i < draws; i++ {
			if h := m.randomHeight(); h < 1 || h > maxLevel {
				t.Fatalf("MaxLevel %d map drew height %d", maxLevel, h)
			}
			hist[heightOf(rng.Uint64())]++
		}
		checkHeightLaw(t, "heightOf", hist, draws, 4)
		for _, w := range []uint64{0, 1 << 63} {
			if h := heightOf(w); h != 32 {
				t.Errorf("heightOf(%#x) = %d, want the tallest draw, 32", w, h)
			}
		}
	})

	t.Run("capped", func(t *testing.T) {
		m := newTestMap(t, Config{MaxLevel: 3})
		top := 0
		for i := 0; i < 1<<16; i++ {
			h := m.randomHeight()
			if h < 1 || h > 3 {
				t.Fatalf("MaxLevel 3 map drew height %d", h)
			}
			top = max(top, h)
		}
		if top != 3 {
			t.Errorf("2^16 draws at MaxLevel 3 never reached height 3")
		}
	})

	t.Run("loaded", func(t *testing.T) {
		const pairs = 1 << 16
		m := newTestMap(t, Config{})
		m.LoadSorted(func(yield func(int64, int64) bool) {
			for k := int64(0); k < pairs; k++ {
				if !yield(k, k) {
					return
				}
			}
		})
		hist := make([]int, maxHeight+1)
		n := 0
		for x := m.head.next0.Raw(); x != m.tail; x = x.next0.Raw() {
			hist[x.height()]++
			n++
		}
		if n != pairs {
			t.Fatalf("level 0 holds %d nodes, want %d", n, pairs)
		}
		// These heights come from the map's unseeded source, so the bound
		// is 5σ (a false failure well under once in 10^5 runs); p = 1/2
		// would miss height 1 by over 100σ.
		checkHeightLaw(t, "LoadSorted", hist, n, 5)
	})
}
