// Command skipbench regenerates the paper's evaluation and the
// experiments the benchmark of record (go run ./benchmark) does not yet
// measure: each subcommand prints a text table (and optionally CSV)
// whose series match the paper's legends.
//
// Usage:
//
//	skipbench fig5 -mix a..f   # Figure 5: throughput vs thread count
//	skipbench fig6             # Figure 6: split roles vs range length
//	skipbench table1           # Table 1: fast-path aborts per query
//	skipbench churn            # churn windows: range throughput over time
//	skipbench persist          # durability overhead: WAL off vs fsync policies
//	skipbench read             # read fast path: optimistic Get vs transactional Get
//	skipbench repl             # replication: primary reads vs barriered replica fan-out
//	skipbench all              # everything
//
// Flags:
//
//	-duration d   trial length (default 2s; paper uses 3s)
//	-trials n     trials per data point (default 1; paper uses 5)
//	-universe n   key universe size (default 1000000)
//	-threads list comma-separated thread counts (default: host-scaled sweep)
//	-csv file     append machine-readable rows to file
//	-quick        smoke-test mode (200ms trials, 2^16 universe)
//	-windows n    measurement windows for the churn experiment (default 6)
//	-dir path     base directory for the persist experiment's WAL dirs
//	              (default: a temp dir, removed afterwards)
//	-seed n       base seed for prefill and worker RNG streams (default 0,
//	              the historical streams); a fixed seed makes prefill and
//	              workload key sequences reproducible across runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

// params are the per-experiment flags that are not bench.Options.
type params struct {
	mix     string
	windows int
	dir     string
}

type experiment struct {
	name string
	run  func(w io.Writer, p params, opts bench.Options) error
}

// experiments is every subcommand, in the order usage lists them and
// "all" runs them.
var experiments = []experiment{
	{"fig5", func(w io.Writer, p params, opts bench.Options) error { return bench.Fig5(w, p.mix, opts) }},
	{"fig6", func(w io.Writer, _ params, opts bench.Options) error { return bench.Fig6(w, opts) }},
	{"table1", func(w io.Writer, _ params, opts bench.Options) error { return bench.Table1(w, opts) }},
	{"churn", func(w io.Writer, p params, opts bench.Options) error { return bench.Churn(w, p.windows, opts) }},
	{"persist", func(w io.Writer, p params, opts bench.Options) error { return bench.Persist(w, p.dir, opts) }},
	{"read", func(w io.Writer, _ params, opts bench.Options) error { return bench.ReadBench(w, opts) }},
	{"repl", func(w io.Writer, _ params, opts bench.Options) error { return bench.Repl(w, opts) }},
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, usage())
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		mix      = fs.String("mix", "a", "figure 5 workload letter (a-f)")
		duration = fs.Duration("duration", 2*time.Second, "trial length")
		trials   = fs.Int("trials", 1, "trials per data point")
		universe = fs.Int64("universe", 1_000_000, "key universe size")
		threads  = fs.String("threads", "", "comma-separated thread counts")
		csvPath  = fs.String("csv", "", "append CSV rows to this file")
		quick    = fs.Bool("quick", false, "smoke-test mode")
		seed     = fs.Uint64("seed", 0, "base seed for prefill and worker RNG streams")
		windows  = fs.Int("windows", 6, "measurement windows for the churn experiment")
		dir      = fs.String("dir", "", "base directory for the persist experiment's WAL dirs")
	)
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	opts := bench.Options{
		Duration: *duration,
		Trials:   *trials,
		Universe: *universe,
		Seed:     *seed,
	}
	if *quick {
		opts.Duration = 200 * time.Millisecond
		opts.Universe = 1 << 16
		if *threads == "" {
			opts.Threads = []int{1, 4}
		}
	}
	if *threads != "" {
		parsed, err := parseThreads(*threads)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skipbench:", err)
			os.Exit(2)
		}
		opts.Threads = parsed
	}
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skipbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		opts.CSV = f
	}
	p := params{mix: *mix, windows: *windows, dir: *dir}

	var err error
	switch cmd {
	case "all":
		err = runAll(os.Stdout, p, opts)
	case "-h", "--help", "help":
		fmt.Fprintln(os.Stderr, usage())
		return
	default:
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == cmd })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "skipbench: unknown command %q\n", cmd)
			fmt.Fprintln(os.Stderr, usage())
			os.Exit(2)
		}
		err = experiments[i].run(os.Stdout, p, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "skipbench:", err)
		os.Exit(1)
	}
}

// runAll runs every experiment in order, Figure 5 once per workload
// letter, stopping at the first error.
func runAll(w io.Writer, p params, opts bench.Options) error {
	for _, e := range experiments {
		mixes := []string{p.mix}
		if e.name == "fig5" {
			mixes = []string{"a", "b", "c", "d", "e", "f"}
		}
		for _, mix := range mixes {
			p.mix = mix
			if err := e.run(w, p, opts); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

func parseThreads(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func usage() string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	names = append(names, "all")
	return "usage: skipbench <" + strings.Join(names, "|") + `> [flags]

Reproduces the evaluation of "Skip Hash: A Fast Ordered Map Via Software
Transactional Memory". Run "skipbench <cmd> -h" for flags.`
}
