package bench

import (
	"fmt"
	"io"
)

// ReadWorkloads are the mixes the read-fast-path experiment sweeps: pure
// lookups (the fast path's best case) and a 90/10 mix (writers keep the
// bucket orecs moving, exercising the fallback).
var ReadWorkloads = []Workload{
	{Name: "100% lookup", LookupPct: 100},
	{Name: "90% lookup, 10% update", LookupPct: 90, UpdatePct: 10},
}

// ReadMaps returns the read-experiment series: the two-path skip hash
// with the optimistic read fast path (the default configuration), and
// the same map with the fast path disabled — the pre-fast-path
// transactional Get, so the pair isolates exactly the fast path's
// effect.
func ReadMaps() []MapFactory {
	return []MapFactory{
		{Name: "skiphash-two-path", New: func() Map { return NewSkipHash("two-path", 0) }},
		{Name: "skiphash-txread", New: func() Map { return NewSkipHash("txread", 0) }},
	}
}

// ReadBench sweeps thread counts for each of ReadWorkloads over
// ReadMaps and prints a throughput table with the fast-read hit rate;
// the CSV rows carry every series' exact hit/fallback counters.
func ReadBench(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	maps := ReadMaps()
	fmt.Fprintf(w, "# Read fast path: universe %d, %v x %d trials\n",
		opts.Universe, opts.Duration, opts.Trials)
	for _, wl := range ReadWorkloads {
		wl.Universe = opts.Universe
		fmt.Fprintf(w, "\n## %s\n%-8s", wl.Name, "threads")
		for _, mf := range maps {
			fmt.Fprintf(w, " %24s", mf.Name)
		}
		fmt.Fprintf(w, " %10s\n", "hit-rate")
		for _, threads := range opts.Threads {
			fmt.Fprintf(w, "%-8d", threads)
			var hitRate float64
			for _, mf := range maps {
				m := mf.New()
				rc := RunConfig{Threads: threads, Duration: opts.Duration, Trials: opts.Trials, Seed: opts.Seed + 53}
				Prefill(m, wl.Universe, rc.Seed+1)
				// Every ReadMaps subject is an STMStatsSource; the snapshot
				// is post-prefill so the delta covers the measured window only.
				src := m.(STMStatsSource)
				before := src.STMStats()
				res := RunTrials(m, wl, rc)
				d := src.STMStats().Sub(before)
				fmt.Fprintf(w, " %24.2f", res.Mops())
				if total := d.FastReadHits + d.FastReadFallbacks; total > 0 {
					hitRate = float64(d.FastReadHits) / float64(total)
				}
				if opts.CSV != nil {
					fmt.Fprintf(opts.CSV, "read,%q,%s,%d,%.4f,%d,%d\n",
						wl.Name, mf.Name, threads, res.Mops(), d.FastReadHits, d.FastReadFallbacks)
				}
			}
			// hitRate is the last fast-path-enabled series' rate in this
			// row (the two-path subject).
			fmt.Fprintf(w, " %10.4f\n", hitRate)
		}
	}
	return nil
}
