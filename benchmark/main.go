// Command benchmark is the repository's benchmark: a single-process
// load generator that drives the skip hash only through public
// functions — the embedded skiphash map, the skiphash/client package
// against a real skiphashd subprocess, and, for the traced layer
// ladder, the exported API of internal/*. README.md defines every
// workload and metric; BENCHMARK.json at the repository root is the
// contract the driver runs it under.
//
//	go run ./benchmark --workload embed-point --seed 1 --seconds 12 --trace 0
//	go run ./benchmark --workload all --seed 1
//	go run ./benchmark --repeat 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
	// bound, for an end-to-end metric, is the share of the parent's
	// median by which it may worsen before a change counts as a
	// regression (BENCHMARK.json carries the same numbers; a test keeps
	// them in step). Per-layer metrics have none.
	bound float64
}

// endToEndMetrics are reported by every workload with --trace 0, and
// bounded. They are the costs a user pays that this host can measure
// to within a tenth: set-up time (a wall time, so it carries the
// widest bound the contract allows) and heap allocation per operation
// in the caller's process, as objects and as bytes. The issue's
// throughput, CPU and latency metrics are timedMetrics; its failure
// ratio is the result line's failed/attempted pair, which is 0 on a
// correct build and so cannot carry a relative bound.
var endToEndMetrics = []metricDef{
	{mSetup, "s", "lower", 0.25},
	{mAllocs, "count", "lower", 0.10},
	{mAllocBytes, "bytes", "lower", 0.10},
}

// timedMetrics are measured by every run, printed in its report and
// returned with the per-layer metrics by --trace 1. README.md ("What is
// bounded") records why they carry no bound.
var timedMetrics = []metricDef{
	{name: mOps, unit: "1/s", better: "higher"},
	{name: mCPU, unit: "us", better: "lower"},
	{name: mReadP50, unit: "us", better: "lower"},
	{name: mUpdateP50, unit: "us", better: "lower"},
}

// env is the process-wide context: where scratch files live and what
// must be torn down however the process ends.
type env struct {
	root      string // module root (the checkout)
	outDir    string // benchmark/out, git-ignored
	tmp       string // this process's scratch under outDir
	daemonBin string

	mu       sync.Mutex
	cleanups []func()
}

func newEnv() (*env, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "benchmark", "out")}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	if e.tmp, err = os.MkdirTemp(e.outDir, "run-"); err != nil {
		return nil, err
	}
	e.atExit(func() { os.RemoveAll(e.tmp) })
	return e, nil
}

// moduleRoot walks up from the working directory to the go.mod that
// declares this module.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: not inside the repro module (no go.mod found)")
		}
		dir = parent
	}
}

func (e *env) atExit(fn func()) {
	e.mu.Lock()
	e.cleanups = append(e.cleanups, fn)
	e.mu.Unlock()
}

// close runs the registered clean-ups, newest first, once.
func (e *env) close() {
	e.mu.Lock()
	fns := e.cleanups
	e.cleanups = nil
	e.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// socketPath is the unix socket for set-up repetition rep, relative to
// the working directory when possible: socket paths are limited to
// ~100 bytes and a checkout may sit deep in the file system.
func (e *env) socketPath(rep int) string {
	abs := filepath.Join(e.tmp, fmt.Sprintf("d%d.sock", rep))
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, abs); err == nil && len(rel) < len(abs) {
			return rel
		}
	}
	return abs
}

// needDaemon builds skiphashd once, before any timer starts.
func (e *env) needDaemon() error {
	if e.daemonBin != "" {
		return nil
	}
	bin, err := buildDaemon(e.outDir)
	e.daemonBin = bin
	return err
}

// runInfo is recorded in every output.
type runInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Workload   string `json:"workload"`
	Detail     string `json:"detail"`
	Clients    int    `json:"clients"`
	InFlight   int    `json:"in_flight_per_client"`
	Loop       string `json:"loop"`
}

func (e *env) info(w *workload, seed uint64) runInfo {
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return runInfo{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit, Seed: seed, Workload: w.name, Detail: w.detail,
		Clients: threads, InFlight: w.window, Loop: "closed",
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "op-stream seed: the same seed gives the same operations")
		seconds = flag.Int("seconds", 12, "seconds measured per run, in 2 s windows (at least 2)")
		trace   = flag.Int("trace", 0, "1 = traced run: layer ladder, spans and counters; prints the per-layer metrics")
		repeat  = flag.Int("repeat", 0, "run every workload this many times, interleaved, and judge each metric's spread")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 2 || (*trace != 0 && *trace != 1) || *repeat < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		return 2
	}
	if runtime.GOMAXPROCS(0) < threads {
		fmt.Fprintf(os.Stderr, "benchmark: GOMAXPROCS=%d but the workloads run %d load threads in parallel; refusing to measure scheduler interleaving\n",
			runtime.GOMAXPROCS(0), threads)
		return 2
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := findWorkload(*name); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer e.close()
	// Subprocesses and scratch files go away on every exit path: normal
	// return, failure, a signal, or the watchdog.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		e.close()
		os.Exit(1)
	}()
	if *repeat == 0 {
		limit := 170 * time.Second * time.Duration(len(selected))
		time.AfterFunc(limit, func() {
			fmt.Fprintf(os.Stderr, "benchmark: still running after %v, giving up\n", limit)
			e.close()
			os.Exit(1)
		})
	}

	if err := e.needDaemon(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cfg := defaultCfg(*seconds)
	if *repeat > 0 {
		return runRepeat(e, selected, *repeat, *seed, cfg)
	}
	code := 0
	for _, w := range selected {
		line, err := runOnce(e, w, *seed, cfg, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if !line.Correct {
			code = 1
		}
	}
	return code
}

// notCrossed is the value of a per-layer metric on a workload that
// does not cross the layer, or whose layer cannot be observed from
// outside the program. The result line must carry a number for every
// metric; no real reading is negative, so -1 cannot be taken for one
// (0 would read as a perfect score wherever lower is better).
const notCrossed = -1

// runOnce runs one workload, prints its report and the result line.
func runOnce(e *env, w *workload, seed uint64, cfg runCfg, traced bool) (*resultLine, error) {
	info := e.info(w, seed)
	hdr, _ := json.Marshal(info)
	fmt.Printf("# %s\n", hdr)
	var (
		out   *outcome
		layer map[string]float64
		err   error
	)
	if traced {
		out, layer, err = traceRun(e, w, seed, cfg, info)
	} else {
		out, err = measure(w, e, seed, cfg, false)
	}
	if err != nil {
		return nil, err
	}
	line := &resultLine{Metrics: map[string]metricValue{}}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), timedMetrics...) {
		s := out.series[m.name]
		fmt.Printf("%-22s %14.4f %-5s median of %d (min %.4f, max %.4f) %.4g\n", m.name, s.median, m.unit, s.n, s.min, s.max, s.values)
		if !traced && m.bound > 0 {
			line.Metrics[m.name] = metricValue{Value: s.median, Unit: m.unit}
		}
	}
	if traced {
		for i, m := range layerMetrics {
			v, ok := layer[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				v = notCrossed
				fmt.Printf("%-36s %14s %s\n", m.name, "n/a", m.unit)
			} else if i >= len(timedMetrics) { // those are printed above
				fmt.Printf("%-36s %14.4f %s\n", m.name, v, m.unit)
			}
			line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
	line.Attempted, line.Failed, line.Correct = out.attempted, out.failed, out.failed == 0
	fmt.Printf("fail_ratio             %14.6g       %d failed of %d attempted\n",
		float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	if out.firstErr != nil {
		fmt.Printf("first failure: %v\n", out.firstErr)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s\n", b)
	return line, nil
}
