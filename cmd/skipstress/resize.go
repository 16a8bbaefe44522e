package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linearize"
	"repro/skiphash"
)

// runResize is the online-resharding stress: the -check workload
// (recorded histories verified round by round against the sequential
// model) runs on a sharded map while a background resizer walks a
// seeded schedule of shard counts, so every round's history spans live
// grow and shrink migrations. Any non-linearizable round, resize
// error, or failed end-of-run audit exits 1 with a reproducer line.
func runResize(threads int, duration time.Duration, seed uint64, shards int,
	lookupPct int, reproducer string) {
	if shards <= 0 {
		shards = 2
	}
	cfg := skiphash.Config{Shards: shards}
	sm := skiphash.NewSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg)
	cm := checkedMap{sm}
	fmt.Printf("skipstress: -resize, %d threads, %v, universe %d, seed %d, lookup%%=%d, %s\n",
		threads, duration, checkUniverse, seed, lookupPct, shardsVariant(sm))

	// The resizer runs for the whole stress, including the inter-round
	// gaps: counts come from the seed so a failure replays, and each
	// transition is a full snapshot-copy + delta-replay migration under
	// whatever the recorder is doing at that moment.
	stop := make(chan struct{})
	var resizerWG sync.WaitGroup
	var resizes atomic.Uint64
	var errMu sync.Mutex
	var resizeErr error
	resizerWG.Add(1)
	go func() {
		defer resizerWG.Done()
		rng := rand.New(rand.NewPCG(seed, 0x4e512e))
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := 1 << (rng.Uint64() % 5) // 1..16 shards
			if _, err := sm.Resize(n); err != nil {
				errMu.Lock()
				if resizeErr == nil {
					resizeErr = fmt.Errorf("Resize(%d): %w", n, err)
				}
				errMu.Unlock()
				return
			}
			resizes.Add(1)
			time.Sleep(time.Duration(1+rng.Uint64()%4) * time.Millisecond)
		}
	}()

	deadline := time.Now().Add(duration)
	c := checked{name: "the resizing map", m: cm, opts: checkOptions(threads, lookupPct)}
	rounds := 0
	for ; time.Now().Before(deadline); rounds++ {
		if !c.round(rounds, seed+uint64(rounds)*1_000_003) {
			fmt.Fprintf(os.Stderr, "reproduce with: %s\n", reproducer)
			os.Exit(1)
		}
		// The workload is quiescent between rounds (only the resizer is
		// live, and resizes never change content), so per-key lookups
		// rebuild the exact state the next round starts from.
		c.snapshot = c.snapshot[:0]
		for k := int64(0); k < checkUniverse; k++ {
			if v, ok := cm.Lookup(k); ok {
				c.snapshot = append(c.snapshot, linearize.KV{Key: k, Val: v})
			}
		}
	}
	close(stop)
	resizerWG.Wait()

	failed := false
	if resizeErr != nil {
		fmt.Fprintf(os.Stderr, "FAIL: %v\n", resizeErr)
		failed = true
	}
	sm.Quiesce()
	if err := sm.CheckInvariants(skiphash.CheckOptions{}); err != nil {
		fmt.Fprintf(os.Stderr, "FAIL: invariants after %d rounds: %v\n", rounds, err)
		failed = true
	}
	st := sm.ResizeStats()
	if st.Resizes == 0 {
		fmt.Fprintln(os.Stderr, "FAIL: no resize changed the shard count; the run proved nothing")
		failed = true
	}
	fmt.Printf("rounds=%d ops=%d unknown=%d resizes=%d shards=%d keys-copied=%d delta-applied=%d cutovers=%d\n",
		rounds, c.ops, c.unknowns, resizes.Load(), sm.Shards(),
		st.KeysCopied, st.DeltaApplied, st.Cutovers)
	if failed {
		fmt.Fprintf(os.Stderr, "skipstress: FAILED\nreproduce with: %s\n", reproducer)
		os.Exit(1)
	}
	fmt.Println("skipstress: PASS")
}
