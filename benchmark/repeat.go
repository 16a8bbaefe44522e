package main

import (
	"fmt"
	"math"
)

// runRepeat runs the selected workloads n times, interleaved so that
// slow drift of the host lands on all of them alike, each round with
// its own seed. It prints, per workload and metric, the median, the
// quartiles, the driver's spread measure (inter-quartile distance over
// the median) and (max-min)/median, and fails if the spread of a
// bounded metric exceeds its bound or any operation failed. The timed
// metrics are listed beside the bounded ones so that every set of runs
// shows what they would have needed.
func runRepeat(e *env, selected []*workload, n int, seed uint64, cfg runCfg) int {
	all := append(append([]metricDef(nil), endToEndMetrics...), timedMetrics...)
	values := map[string]map[string][]float64{}
	var failed uint64
	for round := 0; round < n; round++ {
		for _, w := range selected {
			out, err := measure(w, e, seed+uint64(round), cfg, false)
			if err != nil {
				fmt.Printf("%s round %d: %v\n", w.name, round, err)
				return 1
			}
			failed += out.failed
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			fmt.Printf("round %d seed %d %-17s", round, seed+uint64(round), w.name)
			for _, m := range all {
				v := out.series[m.name].median
				values[w.name][m.name] = append(values[w.name][m.name], v)
				fmt.Printf(" %s=%.4f", m.name, v)
			}
			fmt.Printf(" failed=%d/%d\n", out.failed, out.attempted)
		}
	}
	if n < 2 {
		return 0
	}
	info := e.info(selected[0], seed)
	fmt.Printf("\n%d runs per workload, seeds %d..%d, %d x %v windows, %s, nproc %d, GOMAXPROCS %d, commit %s\n",
		n, seed, seed+uint64(n)-1, cfg.windows, cfg.window, info.GoVersion, info.NumCPU, info.GOMAXPROCS, info.Commit)
	fmt.Printf("%-17s %-20s %14s %14s %14s %8s %8s %6s\n",
		"workload", "metric", "q1", "median", "q3", "iqr/med", "rng/med", "bound")
	code := 0
	for _, w := range selected {
		for _, m := range all {
			xs := values[w.name][m.name]
			q1, q2, q3 := quartiles(xs)
			lo, hi := minMax(xs)
			sp, bound, verdict := spread(xs), "none", ""
			if m.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.bound)
			}
			switch {
			case m.bound == 0 || sp <= m.bound:
			case m.name == mSetup:
				// The contract judges set-up time on its set medians
				// only; its spread is shown, not failed.
				verdict = "  wide"
			default:
				verdict, code = "  TOO NOISY", 1
			}
			fmt.Printf("%-17s %-20s %14.4f %14.4f %14.4f %7.2f%% %7.2f%% %6s%s\n",
				w.name, m.name, q1, q2, q3, 100*sp, 100*(hi-lo)/math.Abs(q2), bound, verdict)
		}
	}
	if failed > 0 {
		fmt.Printf("%d operations failed\n", failed)
		code = 1
	}
	return code
}
