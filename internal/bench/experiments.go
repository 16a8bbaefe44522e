package bench

import (
	"fmt"
	"io"
	"time"
)

// Options control the experiment drivers.
type Options struct {
	// Duration per trial (paper: 3 s; default 2 s; quick runs shrink it).
	Duration time.Duration
	// Trials per data point (paper: 5; default 1).
	Trials int
	// Universe is the key universe size (default 10^6).
	Universe int64
	// Threads overrides the sweep axis (nil selects ThreadCounts()).
	Threads []int
	// CSV, when non-nil, additionally receives machine-readable rows.
	CSV io.Writer
	// Seed offsets every experiment's base seed, flowing into the
	// worker RNG streams and the prefill permutation, so two runs with
	// one seed measure identical key sequences (and different seeds
	// vary them deliberately). Zero keeps the historical streams.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Duration == 0 {
		o.Duration = 2 * time.Second
	}
	if o.Trials == 0 {
		o.Trials = 1
	}
	if o.Universe == 0 {
		o.Universe = 1_000_000
	}
	if o.Threads == nil {
		o.Threads = ThreadCounts()
	}
	return o
}

// Fig5Workloads are the six operation mixes of Figure 5, keyed a-f.
var Fig5Workloads = map[string]Workload{
	"a": {Name: "100% lookup", LookupPct: 100},
	"b": {Name: "100% update", UpdatePct: 100},
	"c": {Name: "100% range", RangePct: 100},
	"d": {Name: "80% lookup, 10% update, 10% range", LookupPct: 80, UpdatePct: 10, RangePct: 10},
	"e": {Name: "80% update, 20% range", UpdatePct: 80, RangePct: 20},
	"f": {Name: "1% lookup, 98% update, 1% range", LookupPct: 1, UpdatePct: 98, RangePct: 1},
}

// MapFactory builds a fresh map per data point so state never leaks
// between trials of different thread counts.
type MapFactory struct {
	Name string
	New  func() Map
}

// Fig5Maps returns the series of Figure 5, in the paper's legend order.
// Elemental-only workloads (a, b) additionally include the STM skip list
// and STM hash map.
func Fig5Maps(elementalOnly bool) []MapFactory {
	out := []MapFactory{
		{Name: "skiphash-fast-only", New: func() Map { return NewSkipHash("fast", 0) }},
		{Name: "skiphash-slow-only", New: func() Map { return NewSkipHash("slow", 0) }},
		{Name: "skiphash-two-path", New: func() Map { return NewSkipHash("two-path", 0) }},
		{Name: "bst-vcas-hwclock", New: func() Map { return NewVcasBST("hwclock") }},
		{Name: "skiplist-vcas-hwclock", New: func() Map { return NewVcasSkip("hwclock") }},
		{Name: "skiplist-bundled-hwclock", New: func() Map { return NewBundleSkip("hwclock") }},
	}
	if elementalOnly {
		out = append(out,
			MapFactory{Name: "skiplist-stm", New: func() Map { return NewStmSkip() }},
			MapFactory{Name: "hashmap-stm", New: func() Map { return NewStmHash(0) }},
		)
	}
	return out
}

// Fig5 sweeps thread counts for one of Figure 5's workloads (letter in
// a..f) and prints a throughput table: one column per map, rows are
// thread counts, cells millions of operations per second.
func Fig5(w io.Writer, letter string, opts Options) error {
	opts = opts.withDefaults()
	wl, ok := Fig5Workloads[letter]
	if !ok {
		return fmt.Errorf("bench: no Figure 5 workload %q", letter)
	}
	wl.Universe = opts.Universe
	elemental := wl.RangePct == 0
	maps := Fig5Maps(elemental)

	fmt.Fprintf(w, "# Figure 5%s: %s (universe %d, %v x %d trials)\n",
		letter, wl.Name, opts.Universe, opts.Duration, opts.Trials)
	fmt.Fprintf(w, "%-8s", "threads")
	for _, mf := range maps {
		fmt.Fprintf(w, " %24s", mf.Name)
	}
	fmt.Fprintln(w)
	for _, threads := range opts.Threads {
		fmt.Fprintf(w, "%-8d", threads)
		for _, mf := range maps {
			m := mf.New()
			if wl.RangePct > 0 && !m.SupportsRange() {
				fmt.Fprintf(w, " %24s", "-")
				continue
			}
			rc := RunConfig{Threads: threads, Duration: opts.Duration, Trials: opts.Trials, Seed: opts.Seed + 7}
			Prefill(m, wl.Universe, rc.Seed+1)
			res := RunTrials(m, wl, rc)
			fmt.Fprintf(w, " %24.2f", res.Mops())
			if opts.CSV != nil {
				fmt.Fprintf(opts.CSV, "fig5%s,%s,%d,%.4f\n", letter, mf.Name, threads, res.Mops())
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig6Lengths is the range-length sweep of Figure 6: powers of two from
// 2^4 to 2^16.
func Fig6Lengths() []int64 {
	var out []int64
	for e := 4; e <= 16; e++ {
		out = append(out, 1<<uint(e))
	}
	return out
}

// Fig6 reproduces Figure 6: half the threads run updates only, half run
// range queries only, while the range length sweeps. Two tables are
// printed: update throughput (Mops/s) and range throughput (million
// pairs processed per second).
func Fig6(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	// The paper pins 24+24 threads on one socket; scale to the host.
	half := 12
	if maxHalf := ThreadCounts()[len(ThreadCounts())-1] / 4; maxHalf < half {
		half = maxHalf
	}
	if half < 1 {
		half = 1
	}
	maps := Fig5Maps(false)
	lengths := Fig6Lengths()

	fmt.Fprintf(w, "# Figure 6: %d update threads + %d range threads, universe %d, %v x %d trials\n",
		half, half, opts.Universe, opts.Duration, opts.Trials)
	type cell struct{ upd, rng float64 }
	table := make(map[string]map[int64]cell, len(maps))
	for _, mf := range maps {
		table[mf.Name] = make(map[int64]cell, len(lengths))
		for _, ln := range lengths {
			m := mf.New()
			rc := RunConfig{Duration: opts.Duration, Trials: opts.Trials, Seed: opts.Seed + 13}
			Prefill(m, opts.Universe, rc.Seed+1)
			res := RunSplitTrials(m, half, half, ln, opts.Universe, rc)
			table[mf.Name][ln] = cell{upd: res.UpdateMops(), rng: res.RangePairsPerSec() / 1e6}
			if opts.CSV != nil {
				fmt.Fprintf(opts.CSV, "fig6,%s,%d,%.4f,%.4f\n",
					mf.Name, ln, res.UpdateMops(), res.RangePairsPerSec()/1e6)
			}
		}
	}
	for _, section := range []struct {
		title string
		pick  func(cell) float64
	}{
		{"update throughput (Mops/s)", func(c cell) float64 { return c.upd }},
		{"range throughput (Mpairs/s)", func(c cell) float64 { return c.rng }},
	} {
		fmt.Fprintf(w, "\n## %s\n%-8s", section.title, "length")
		for _, mf := range maps {
			fmt.Fprintf(w, " %24s", mf.Name)
		}
		fmt.Fprintln(w)
		for _, ln := range lengths {
			fmt.Fprintf(w, "%-8d", ln)
			for _, mf := range maps {
				fmt.Fprintf(w, " %24.2f", section.pick(table[mf.Name][ln]))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Table1Lengths is the abort-rate sweep of Table 1: 2^10..2^14.
func Table1Lengths() []int64 {
	return []int64{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14}
}

// Table1 reproduces Table 1: aborts per successful range query in a
// fast-path-only skip hash under the Figure 6 workload, by range length.
func Table1(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	half := 12
	if maxHalf := ThreadCounts()[len(ThreadCounts())-1] / 4; maxHalf < half {
		half = maxHalf
	}
	if half < 1 {
		half = 1
	}
	fmt.Fprintf(w, "# Table 1: aborts per successful fast-path range query (%d+%d threads, universe %d)\n",
		half, half, opts.Universe)
	fmt.Fprintf(w, "%-10s %16s %16s %16s\n", "length", "aborts/query", "queries", "aborts")
	for _, ln := range Table1Lengths() {
		m := NewSkipHash("fast", 0)
		before := m.RangeStats()
		RunSplit(m, half, half, ln, opts.Universe,
			RunConfig{Duration: opts.Duration, Trials: opts.Trials, Seed: opts.Seed + 29})
		s := m.RangeStats().Sub(before)
		rate := "inf"
		if s.FastCommits > 0 {
			rate = fmt.Sprintf("%.2f", float64(s.FastAborts)/float64(s.FastCommits))
		}
		fmt.Fprintf(w, "%-10d %16s %16d %16d\n", ln, rate, s.FastCommits, s.FastAborts)
		if opts.CSV != nil {
			fmt.Fprintf(opts.CSV, "table1,%d,%s,%d,%d\n", ln, rate, s.FastCommits, s.FastAborts)
		}
	}
	return nil
}
