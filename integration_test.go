package repro

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/baseline/bundleskip"
	"repro/internal/baseline/vcasbst"
	"repro/internal/baseline/vcasskip"
	"repro/internal/bench"
	"repro/internal/kv"
)

// TestDifferentialSequential drives one pseudo-random operation stream
// through every map implementation and demands identical answers at
// every step — the skip hash, all of its variants, and every baseline
// implement the same abstract ordered map, so any divergence is a bug in
// one of them.
func TestDifferentialSequential(t *testing.T) {
	subjects := []bench.Map{
		bench.NewSkipHash("two-path", 1021),
		bench.NewSkipHash("fast", 1021),
		bench.NewSkipHash("slow", 1021),
		bench.NewSkipHash("txread", 1021),
		bench.NewVcasBST("hwclock"),
		bench.NewVcasSkip("hwclock"),
		bench.NewBundleSkip("hwclock"),
	}
	workers := make([]bench.Worker, len(subjects))
	for i, s := range subjects {
		workers[i] = s.NewWorker()
	}
	rng := rand.New(rand.NewPCG(2024, 7466))
	const universe = 512
	for step := 0; step < 20000; step++ {
		k := int64(rng.Uint64() % universe)
		switch rng.Uint64() % 4 {
		case 0:
			want := workers[0].Insert(k, k*3)
			for i := 1; i < len(workers); i++ {
				if got := workers[i].Insert(k, k*3); got != want {
					t.Fatalf("step %d: %s Insert(%d) = %v, %s said %v",
						step, subjects[i].Name(), k, got, subjects[0].Name(), want)
				}
			}
		case 1:
			want := workers[0].Remove(k)
			for i := 1; i < len(workers); i++ {
				if got := workers[i].Remove(k); got != want {
					t.Fatalf("step %d: %s Remove(%d) = %v, %s said %v",
						step, subjects[i].Name(), k, got, subjects[0].Name(), want)
				}
			}
		case 2:
			want := workers[0].Lookup(k)
			for i := 1; i < len(workers); i++ {
				if got := workers[i].Lookup(k); got != want {
					t.Fatalf("step %d: %s Lookup(%d) = %v, %s said %v",
						step, subjects[i].Name(), k, got, subjects[0].Name(), want)
				}
			}
		case 3:
			r := k + int64(rng.Uint64()%64)
			want := workers[0].Range(k, r)
			for i := 1; i < len(workers); i++ {
				if got := workers[i].Range(k, r); got != want {
					t.Fatalf("step %d: %s Range(%d,%d) = %d pairs, %s said %d",
						step, subjects[i].Name(), k, r, got, subjects[0].Name(), want)
				}
			}
		}
	}
}

// TestDifferentialFinalState runs a concurrent phase with per-subject
// deterministic per-key outcomes (each goroutine owns a key stripe), and
// then compares the final sorted contents of every implementation.
func TestDifferentialFinalState(t *testing.T) {
	subjects := []struct {
		name string
		m    kvMap
	}{
		{"vcasbst", vcasbst.New(vcasbst.Config{})},
		{"vcasskip", vcasskip.New(vcasskip.Config{})},
		{"bundleskip", bundleskip.New(bundleskip.Config{})},
	}
	const stripes = 8
	const perStripe = 128
	const universe = stripes * perStripe
	for _, s := range subjects {
		var wg sync.WaitGroup
		for g := 0; g < stripes; g++ {
			wg.Add(1)
			go func(base int64) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(base), 5))
				// Deterministic end state per stripe regardless of
				// interleaving: last op per key decided by a fixed
				// schedule.
				for round := 0; round < 50; round++ {
					for i := int64(0); i < perStripe; i++ {
						k := base + i
						if (uint64(round)+rng.Uint64())&1 == 0 {
							s.m.Insert(k, k)
						} else {
							s.m.Remove(k)
						}
					}
				}
				// Final deterministic pass: evens present, odds absent.
				for i := int64(0); i < perStripe; i++ {
					k := base + i
					if i%2 == 0 {
						s.m.Insert(k, k)
					} else {
						s.m.Remove(k)
					}
				}
			}(int64(g) * perStripe)
		}
		wg.Wait()
		got := s.m.Range(0, universe, nil)
		if len(got) != universe/2 {
			t.Errorf("%s: final population %d, want %d", s.name, len(got), universe/2)
			continue
		}
		for i, p := range got {
			if p.Key != int64(i*2) {
				t.Errorf("%s: position %d holds key %d, want %d", s.name, i, p.Key, i*2)
				break
			}
		}
	}
}

// kvMap is the native int64 interface every baseline implements.
type kvMap interface {
	Insert(k, v int64) bool
	Remove(k int64) bool
	Range(l, r int64, buf []kv.KV) []kv.KV
}
