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

// This file is the online-resharding experiment behind Sharded.Resize:
// a fixed point-operation workload (50% lookup, 25% insert, 25% remove)
// runs throughout while the shard count walks a fixed grow/shrink
// schedule, alternating measurement windows with a live migration in
// flight ("migrate") and windows at the new steady state ("steady").
// The demonstration is twofold: the map keeps serving while keys move
// (migrate-window throughput stays within a modest factor of steady),
// and having resized leaves steady-state throughput unchanged.

// reshardSchedule is the walk of target shard counts from the initial
// count: doubling, collapsing, fanning wide, and returning home. Fixed
// so report rows carry identical identities across runs.
var reshardSchedule = []int{8, 2, 16, 4}

// reshardInitialShards pins the starting partition count so the series
// is comparable across hosts.
const reshardInitialShards = 4

// Reshard runs the online-resharding experiment.
func Reshard(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	threads := opts.Threads[len(opts.Threads)-1]
	fmt.Fprintf(w, "# Reshard: %d threads, universe %d, windows of %v, schedule %v from %d shards\n",
		threads, opts.Universe, opts.Duration, reshardSchedule, reshardInitialShards)
	fmt.Fprintf(w, "%-22s %-8s %-9s %7s %10s %13s\n",
		"map", "window", "phase", "shards", "Mops/s", "keys-copied")
	cfg := skiphash.Config{Buckets: thashmap.DefaultBuckets, Shards: reshardInitialShards}
	sm := skiphash.NewSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg)
	defer sm.Close()
	const name = "skiphash-reshard"
	universe := opts.Universe
	seed := opts.Seed + 131
	perm := rand.New(rand.NewPCG(seed, 0x5eed)).Perm(int(universe))
	for i := 0; i < int(universe)/2; i++ {
		sm.Insert(int64(perm[i]), int64(perm[i]))
	}

	var ops atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			h := sm.NewHandle()
			defer h.Close()
			rng := rand.New(rand.NewPCG(seed+id, 0xabc3))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 64; i++ {
					k := int64(rng.Uint64() % uint64(universe))
					switch rng.Uint64() & 3 {
					case 0:
						h.Insert(k, k)
					case 1:
						h.Remove(k)
					default:
						h.Lookup(k)
					}
				}
				ops.Add(64)
			}
		}(uint64(t) + 1)
	}
	stopped := false
	stopWorkers := func() {
		if !stopped {
			stopped = true
			close(stop)
			wg.Wait()
		}
	}
	defer stopWorkers()

	winIdx := 0
	// window measures one throughput window. target > 0 kicks off a
	// live migration at the window's start; the window then extends
	// until the migration finishes, so a migrate window's elapsed time
	// is max(opts.Duration, migration time) and its throughput is the
	// whole-migration average.
	window := func(phase string, target int) error {
		o0 := ops.Load()
		copied0 := sm.ResizeStats().KeysCopied
		began := time.Now()
		var rerr error
		var rwg sync.WaitGroup
		if target > 0 {
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				_, rerr = sm.Resize(target)
			}()
		}
		time.Sleep(opts.Duration)
		rwg.Wait()
		elapsed := time.Since(began).Seconds()
		if rerr != nil {
			return fmt.Errorf("bench: reshard %s: Resize(%d): %w", name, target, rerr)
		}
		mops := float64(ops.Load()-o0) / 1e6 / elapsed
		copied := sm.ResizeStats().KeysCopied - copied0
		shards := sm.Shards()
		fmt.Fprintf(w, "%-22s %-8d %-9s %7d %10.2f %13d\n",
			name, winIdx, phase, shards, mops, copied)
		if opts.CSV != nil {
			fmt.Fprintf(opts.CSV, "reshard,%s,%s,%d,%d,%.4f,%d\n",
				name, phase, winIdx, shards, mops, copied)
		}
		winIdx++
		return nil
	}

	if err := window("steady", 0); err != nil {
		return err
	}
	for _, target := range reshardSchedule {
		if err := window("migrate", target); err != nil {
			return err
		}
		if err := window("steady", 0); err != nil {
			return err
		}
	}
	stopWorkers()
	sm.Quiesce()
	if err := sm.CheckInvariants(skiphash.CheckOptions{}); err != nil {
		return fmt.Errorf("bench: reshard %s: invariants after schedule: %w", name, err)
	}
	st := sm.ResizeStats()
	fmt.Fprintf(w, "%-22s done: resizes=%d keys-copied=%d delta-applied=%d cutovers=%d final-shards=%d\n",
		name, st.Resizes, st.KeysCopied, st.DeltaApplied, st.Cutovers, sm.Shards())
	return nil
}
