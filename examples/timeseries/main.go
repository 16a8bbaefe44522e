// Timeseries: a sliding-window metrics store. Writer goroutines append
// timestamped readings; an aggregator computes windowed statistics with
// linearizable range queries while an evictor trims expired samples with
// point queries — all concurrently, which is exactly the mixed workload
// (inserts + removals + overlapping ranges) the skip hash's range query
// coordinator exists to make fast.
package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/skiphash"
)

func main() {
	// Keys are nanosecond timestamps; values are sensor readings.
	store := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	var written, evicted, windows atomic.Int64

	done := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	now := func() int64 { return time.Since(start).Nanoseconds() }

	// Writers: each sensor appends readings at its own cadence. The
	// timestamp is perturbed per sensor so keys rarely collide.
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(sensor int64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(sensor), 7))
			for {
				select {
				case <-done:
					return
				default:
				}
				ts := now()*10 + sensor // interleave sensors in key space
				reading := 1000 + int64(rng.Uint64()%100)
				if store.Insert(ts, reading) {
					written.Add(1)
				}
			}
		}(int64(s))
	}

	// Aggregator: 10ms sliding-window min/max/mean over all sensors.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []skiphash.Pair[int64, int64]
		for {
			select {
			case <-done:
				return
			default:
			}
			hi := now() * 10
			lo := hi - 10*time.Millisecond.Nanoseconds()*10
			buf = store.Range(lo, hi, buf[:0])
			if len(buf) == 0 {
				continue
			}
			min, max, sum := buf[0].Val, buf[0].Val, int64(0)
			for _, p := range buf {
				if p.Val < min {
					min = p.Val
				}
				if p.Val > max {
					max = p.Val
				}
				sum += p.Val
			}
			if min < 1000 || max >= 1100 {
				panic("window aggregate saw an impossible reading")
			}
			windows.Add(1)
		}
	}()

	// Evictor: drops samples older than 50ms using Pred to find them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			cutoff := (now() - 50*time.Millisecond.Nanoseconds()) * 10
			for {
				k, _, ok := store.Pred(cutoff)
				if !ok {
					break
				}
				if store.Remove(k) {
					evicted.Add(1)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(done)
	wg.Wait()

	remaining := store.Range(0, 1<<62, nil)
	fmt.Printf("samples written: %d\n", written.Load())
	fmt.Printf("samples evicted: %d\n", evicted.Load())
	fmt.Printf("windows served:  %d\n", windows.Load())
	fmt.Printf("samples resident: %d\n", len(remaining))
	if oldest, _, ok := store.Ceil(0); ok {
		fmt.Printf("oldest resident sample age: %v\n",
			time.Duration(now()-oldest/10))
	}
}
