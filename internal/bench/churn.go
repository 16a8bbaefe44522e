package bench

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/thashmap"
	"repro/skiphash"
)

// This file is the long-running churn experiment behind reclamation:
// sustained remove/insert cycles through the map's methods, while
// dedicated goroutines measure range throughput in consecutive windows. A removal
// that stranded its node stitched-but-deleted would grow the level-0
// chain without bound and make range throughput decay window over
// window; with every removal unstitching at commit (or through an
// in-flight range query's deferred list) the backlog stays near zero
// and the series stays flat.

// churnSubject is one map variant under the churn driver.
type churnSubject struct {
	name string
	m    *skiphash.Map[int64, int64]
}

func (s *churnSubject) backlog() int { return liveBacklog(s.m.StitchedSlow(), s.m.SizeSlow()) }

// liveBacklog clamps a racily sampled stitched-minus-live reading; the
// two walks are unsynchronized, so mid-churn samples can transiently go
// negative.
func liveBacklog(stitched, live int) int {
	if stitched < live {
		return 0
	}
	return stitched - live
}

// Churn runs the churn experiment: for each subject, opts.Threads/2
// (min 1) updater goroutines run remove/insert cycles while the same
// number of range goroutines measure range throughput, reported per
// window of
// opts.Duration. A healthy reclamation path shows a flat range series
// and a bounded backlog; a leak shows monotonic decay and a backlog
// growing with every window.
func Churn(w io.Writer, windows int, opts Options) error {
	opts = opts.withDefaults()
	if windows <= 0 {
		windows = 6
	}
	threads := opts.Threads[len(opts.Threads)-1]
	half := threads / 2
	if half < 1 {
		half = 1
	}
	universe := opts.Universe
	rangeSpan := universe / 100
	if rangeSpan < 16 {
		rangeSpan = 16
	}
	fmt.Fprintf(w, "# Churn: %d update + %d range threads, universe %d, %d windows x %v\n",
		half, half, universe, windows, opts.Duration)
	fmt.Fprintf(w, "%-26s %-8s %14s %14s %12s\n",
		"map", "window", "update-Mops/s", "range-Mpairs/s", "backlog")
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Buckets: thashmap.DefaultBuckets})
	return churnOne(w, &churnSubject{name: "skiphash", m: m}, half, windows, universe, rangeSpan, opts)
}

func churnOne(w io.Writer, sub *churnSubject, half, windows int, universe, rangeSpan int64, opts Options) error {
	defer sub.m.Close()
	seed := opts.Seed + 97
	perm := rand.New(rand.NewPCG(seed, 0x5eed)).Perm(int(universe))
	for i := 0; i < int(universe)/2; i++ {
		sub.m.Insert(int64(perm[i]), int64(perm[i]))
	}

	var updates, rangePairs atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for t := 0; t < half; t++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed+id, 0xabc1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 64; i++ {
					k := int64(rng.Uint64() % uint64(universe))
					if rng.Uint64()&1 == 0 {
						sub.m.Remove(k)
					} else {
						sub.m.Insert(k, k)
					}
					updates.Add(1)
				}
			}
		}(uint64(t) + 1)
	}
	for t := 0; t < half; t++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed+id, 0xabc2))
			for {
				select {
				case <-stop:
					return
				default:
				}
				l := int64(rng.Uint64() % uint64(universe))
				rangePairs.Add(uint64(len(sub.m.Range(l, l+rangeSpan, nil))))
			}
		}(uint64(t) + 101)
	}

	var firstRange, lastRange float64
	for win := 0; win < windows; win++ {
		u0, p0 := updates.Load(), rangePairs.Load()
		began := time.Now()
		time.Sleep(opts.Duration)
		elapsed := time.Since(began).Seconds()
		du := updates.Load() - u0
		dp := rangePairs.Load() - p0
		updMops := float64(du) / 1e6 / elapsed
		rngMpairs := float64(dp) / 1e6 / elapsed
		backlog := sub.backlog()
		if win == 0 {
			firstRange = rngMpairs
		}
		lastRange = rngMpairs
		fmt.Fprintf(w, "%-26s %-8d %14.2f %14.2f %12d\n",
			sub.name, win, updMops, rngMpairs, backlog)
		if opts.CSV != nil {
			fmt.Fprintf(opts.CSV, "churn,%s,%d,%.4f,%.4f,%d\n",
				sub.name, win, updMops, rngMpairs, backlog)
		}
	}
	close(stop)
	wg.Wait()
	finalBacklog := sub.backlog()
	fmt.Fprintf(w, "%-26s final: backlog %d, drained %d, range first->last %.2f -> %.2f Mpairs/s\n",
		sub.name, finalBacklog, sub.m.MaintenanceStats().DrainedNodes, firstRange, lastRange)
	if finalBacklog != 0 {
		return fmt.Errorf("bench: %s left %d stitched logically-deleted nodes after its workers joined", sub.name, finalBacklog)
	}
	return nil
}
