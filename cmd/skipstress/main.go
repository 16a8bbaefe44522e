// Command skipstress hammers a skip hash with a mixed workload while
// continuously auditing correctness evidence: per-key linearization
// balances, range-query snapshot sanity, and (at the end) the full
// structural invariant check including deferred-reclamation drainage.
// It is the repository's long-running confidence tool; CI runs the same
// checks in miniature through the test suite.
//
// With -check it instead records invoke/return histories of a seeded
// workload in rounds and verifies each round online against the
// sequential ordered-map model with the internal/linearize checker,
// exiting nonzero with the offending partition and a reproducer seed on
// any violation.
//
// With -net it serves the map over loopback TCP (internal/server)
// and drives the -check workload through real protocol clients
// (skiphash/client), verifying the client-observed histories — wire
// codec, pipelined request coalescing and all — against the sequential
// model, then audits the served map's invariants. Adding -namespaces n
// makes the same server host n byte-string namespaces beside the
// default map, all driven concurrently over the same connections, each
// by its own seeded workload — the default map through the v1 ops, the
// namespaces through the v2 ops (int64 keys crossing the wire as 8-byte
// big-endian strings) — and each checked against its own sequential
// model.
//
// With -crash it runs the durability stress: -cycles kill/recover
// rounds against one durability directory, alternating (a) concurrent
// FsyncAlways rounds killed at a random operation count and audited for
// exact equality against a shadow model (acknowledged operations may
// never be lost), and (b) single-writer FsyncNone rounds killed with a
// torn WAL tail and audited for exact-prefix recovery (the recovered
// state must equal the shadow after some prefix of the round's
// operations, no shorter than the last explicit Sync). Any divergence
// exits 1 with a reproducer line.
//
// With -replica it runs the replicated serving stress: a durable
// primary streaming its WAL (internal/repl) to two live in-process
// replicas, with the -check workload driven through a protocol client
// whose lookups alternate primary reads and watermark-barriered
// replica reads (GetAt). Halfway through, the primary is killed and a
// caught-up replica is promoted over the wire; the workload then
// continues against the promoted node only — post-promotion stamps are
// floored above everything applied, but stamps are only comparable
// within one primary lineage, so the other replica is dropped. Every
// round's client-observed history must linearize across the failover.
//
// All randomness derives from -seed, so any reported failure can be
// replayed by re-running with the printed flags. The reproducer line
// is rebuilt from the flag set itself (explicitly-set flags plus the
// pinned workload determinants), not from a hand-maintained format.
//
// Usage:
//
//	skipstress [-threads n] [-duration d] [-universe n] [-mode two-path|fast|slow]
//	           [-seed n] [-check] [-crash] [-cycles n]
//	           [-net] [-namespaces n] [-replica] [-readheavy] [-metrics-dump]
//
// -readheavy skews the -check/-net workload to 80% point lookups, the
// mix that keeps the optimistic read fast path hot while concurrent
// writers force fallbacks — the adversity the fast path's
// linearizability is checked under.
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linearize"
	"repro/internal/maptest"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/skiphash"
)

// reproducerLine rebuilds the command line that replays this run from
// the flag set itself: every flag the user set explicitly (flag.Visit)
// plus the always-pinned workload determinants — seed, threads,
// duration, universe, and cycles under -crash — whose defaults
// (GOMAXPROCS, for one) vary by machine. Deriving the line from the
// registered flags keeps it honest as flags are added; the old
// hand-maintained format strings silently dropped newcomers.
func reproducerLine() string {
	pinned := map[string]bool{"seed": true, "threads": true, "duration": true, "universe": true}
	if f := flag.Lookup("crash"); f != nil && f.Value.String() == "true" {
		pinned["cycles"] = true
	}
	if f := flag.Lookup("net"); f != nil && f.Value.String() == "true" {
		// The namespace count determines the multi-tenant workload split,
		// so -net reproducer lines carry it even at its default.
		pinned["namespaces"] = true
	}
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var b strings.Builder
	b.WriteString("go run ./cmd/skipstress")
	flag.VisitAll(func(f *flag.Flag) {
		if set[f.Name] || pinned[f.Name] {
			fmt.Fprintf(&b, " -%s=%v", f.Name, f.Value)
		}
	})
	return b.String()
}

// maxFailurePrints caps per-failure output so a systemic bug cannot
// drown the summary (and the reproducer line) in millions of lines.
const maxFailurePrints = 20

func main() {
	var (
		threads   = flag.Int("threads", runtime.GOMAXPROCS(0), "worker goroutines")
		duration  = flag.Duration("duration", 5*time.Second, "stress duration")
		universe  = flag.Int64("universe", 1<<16, "key universe")
		mode      = flag.String("mode", "two-path", "range path: two-path, fast, or slow")
		rangeLen  = flag.Int64("rangelen", 128, "range query length")
		seed      = flag.Uint64("seed", 1, "seed for all workload randomness")
		check     = flag.Bool("check", false, "record histories and verify linearizability online")
		crash     = flag.Bool("crash", false, "durability kill/recover cycles audited against a shadow model")
		netCheck  = flag.Bool("net", false, "serve over loopback TCP and check client-side linearizability")
		nsCount   = flag.Int("namespaces", 0, "with -net: also drive this many byte-string namespaces concurrently through the checker")
		replica   = flag.Bool("replica", false, "replicated serving stress: barriered replica reads, then kill the primary and promote")
		cycles    = flag.Int("cycles", 60, "kill/recover cycles for -crash")
		dir       = flag.String("dir", "", "durability directory for -crash (default: a temp dir)")
		readHeavy = flag.Bool("readheavy", false, "80% point-lookup mix for -check/-net (drives the read fast path)")
		metrics   = flag.Bool("metrics-dump", false, "print the map's counters as a Prometheus exposition at end of run (in-process modes)")
	)
	flag.Parse()

	modes := 0
	for _, on := range []bool{*check, *crash, *netCheck, *replica} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "skipstress: -check, -crash, -net and -replica are mutually exclusive")
		os.Exit(2)
	}
	reproducer := reproducerLine()
	if *crash {
		// The shadow model starts empty, so a directory with recovered
		// state would fail the cycle-0 audit spuriously — and deleting a
		// user-named directory is not this tool's call. Refuse instead.
		if entries, err := os.ReadDir(*dir); err == nil && len(entries) > 0 {
			fmt.Fprintf(os.Stderr, "skipstress: -dir %s is not empty; -crash needs a fresh directory\n", *dir)
			os.Exit(2)
		}
		if err := runCrash(*cycles, *threads, *universe, *seed, *dir); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: %v\nreproduce with: %s\n", err, reproducer)
			os.Exit(1)
		}
		return
	}
	lookupPct := 0
	if *readHeavy {
		lookupPct = 80
	}
	if *nsCount > 0 && !*netCheck {
		fmt.Fprintln(os.Stderr, "skipstress: -namespaces requires -net")
		os.Exit(2)
	}
	if *netCheck {
		if err := runNet(*threads, *duration, *seed, *nsCount, lookupPct); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: %v\nreproduce with: %s\n", err, reproducer)
			os.Exit(1)
		}
		return
	}
	if *replica {
		runReplica(*threads, *duration, *seed, lookupPct, reproducer)
		return
	}
	cfg := skiphash.Config{}
	switch *mode {
	case "fast":
		cfg.FastOnly = true
	case "slow":
		cfg.SlowOnly = true
	case "two-path":
	default:
		fmt.Fprintf(os.Stderr, "skipstress: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg)

	if *metrics {
		// The daemon's own map series, registered before the run so the
		// commit histogram sees every commit, printed on stderr once the
		// run passed (failure paths exit before deferred calls run).
		reg := obs.NewRegistry()
		server.RegisterMapMetrics(reg, func() *skiphash.Map[int64, int64] { return m })
		defer func() {
			fmt.Fprintln(os.Stderr, "skipstress: end-of-run metrics:")
			reg.WriteTo(os.Stderr)
		}()
	}
	if *check {
		if err := runCheck(m, *threads, *duration, *seed, lookupPct); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: %v\nreproduce with: %s\n", err, reproducer)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("skipstress: %d threads, %v, universe %d, mode %s, seed %d\n",
		*threads, *duration, *universe, *mode, *seed)

	perKey := make([]atomic.Int64, *universe)
	var ops, ranges, failures atomic.Uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for t := 0; t < *threads; t++ {
		wg.Add(1)
		go func(worker uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(*seed, worker^0x5eed))
			var buf []skiphash.Pair[int64, int64]
			for {
				select {
				case <-done:
					return
				default:
				}
				for i := 0; i < 32; i++ {
					k := int64(rng.Uint64() % uint64(*universe))
					switch rng.Uint64() % 8 {
					case 0, 1, 2:
						if m.Insert(k, k) {
							perKey[k].Add(1)
						}
					case 3, 4, 5:
						if m.Remove(k) {
							perKey[k].Add(-1)
						}
					case 6:
						if v, ok := m.Lookup(k); ok && v != k {
							if failures.Add(1) <= maxFailurePrints {
								fmt.Fprintf(os.Stderr, "FAIL: Lookup(%d) = %d\n", k, v)
							}
						}
					case 7:
						buf = m.Range(k, k+*rangeLen, buf[:0])
						last := int64(-1)
						for _, p := range buf {
							if p.Key < k || p.Key > k+*rangeLen || p.Key <= last || p.Val != p.Key {
								if failures.Add(1) <= maxFailurePrints {
									fmt.Fprintf(os.Stderr, "FAIL: bad range pair %+v in [%d,%d]\n",
										p, k, k+*rangeLen)
								}
								break
							}
							last = p.Key
						}
						ranges.Add(1)
					}
					ops.Add(1)
				}
			}
		}(uint64(t) + 1)
	}
	time.Sleep(*duration)
	close(done)
	wg.Wait()

	// Post-quiescence audits.
	bad := 0
	for k := int64(0); k < *universe; k++ {
		balance := perKey[k].Load()
		_, present := m.Lookup(k)
		want := int64(0)
		if present {
			want = 1
		}
		if balance != want {
			if bad < maxFailurePrints {
				fmt.Fprintf(os.Stderr, "FAIL: key %d balance %d present %v\n", k, balance, present)
			}
			bad++
		}
	}
	if err := m.CheckInvariants(skiphash.CheckOptions{}); err != nil {
		fmt.Fprintf(os.Stderr, "FAIL: invariants: %v\n", err)
		bad++
	}
	s := m.RangeStats()
	fmt.Printf("ops=%d ranges=%d fast=%d slow=%d fast-aborts=%d\n",
		ops.Load(), ranges.Load(), s.FastCommits, s.SlowCommits, s.FastAborts)
	if bad > 0 || failures.Load() > 0 {
		fmt.Fprintf(os.Stderr, "skipstress: FAILED (%d balance errors, %d online failures)\n",
			bad, failures.Load())
		fmt.Fprintf(os.Stderr, "reproduce with: %s\n", reproducer)
		os.Exit(1)
	}
	fmt.Println("skipstress: PASS")
}

// checkUniverse is the key universe of every checker workload: small, so
// clients collide constantly.
const checkUniverse = 64

// checked is one map under the linearizability checker: a seeded
// workload is recorded against it round after round, each history
// verified from the state the previous round left behind.
type checked struct {
	name     string // names the map in a counterexample
	m        maptest.OrderedMap
	opts     maptest.WorkloadOptions // per-round workload; round sets Seed
	snapshot []linearize.KV          // the state the next round starts from
	ops      int
	unknowns int
}

// checkOptions is the standard checker workload. Point queries run
// only against maps that implement them (the in-process ones); Puts run
// against every checked map, served ones included.
func checkOptions(clients int, lookupPct int) maptest.WorkloadOptions {
	return maptest.WorkloadOptions{
		Clients:      clients,
		OpsPerClient: 192,
		Universe:     checkUniverse,
		PointQueries: true,
		Ranges:       true,
		Batches:      true,
		LookupPct:    lookupPct,
		PutPct:       10,
	}
}

// round records round n's history under seed and verifies it from the
// current snapshot; a counterexample goes to stderr and reports false.
// The workload's clients have joined by the time it returns, so the
// caller may re-read the quiescent map into snapshot.
func (c *checked) round(n int, seed uint64) bool {
	opts := c.opts
	opts.Seed = seed
	h := maptest.RecordHistory(c.m, opts)
	res := linearize.CheckOpts(h, linearize.Options{Initial: c.snapshot})
	c.ops += len(h)
	if res.Unknown {
		c.unknowns++
	} else if !res.Ok {
		fmt.Fprintf(os.Stderr, "FAIL: non-linearizable history of %s in round %d (round seed %d), partition keys %v:\n%s",
			c.name, n, seed, res.PartitionKeys, linearize.FormatOps(res.Ops))
		return false
	}
	return true
}

// readAll re-reads the quiescent map's full state through its own Range.
func (c *checked) readAll() { c.snapshot = c.m.Range(0, checkUniverse, c.snapshot[:0]) }

// runCheck records seeded workload rounds and verifies each round's
// history online. The map stays hot across rounds: each round's check
// starts from a quiescent snapshot of the previous round's final state.
// Any failure is returned (a counterexample history has by then gone to
// stderr).
func runCheck(m *skiphash.Map[int64, int64], threads int, duration time.Duration,
	seed uint64, lookupPct int) error {
	fmt.Printf("skipstress: -check, %d threads, %v, universe %d, seed %d, lookup%%=%d\n",
		threads, duration, checkUniverse, seed, lookupPct)

	c := checked{name: "the map", m: checkedMap{m}, opts: checkOptions(threads, lookupPct)}
	deadline := time.Now().Add(duration)
	rounds := 0
	for ; time.Now().Before(deadline); rounds++ {
		if !c.round(rounds, seed+uint64(rounds)*1_000_003) {
			return fmt.Errorf("round %d: non-linearizable history", rounds)
		}
		c.readAll()
	}
	if err := m.CheckInvariants(skiphash.CheckOptions{}); err != nil {
		return fmt.Errorf("invariants after %d rounds: %w", rounds, err)
	}
	fmt.Printf("rounds=%d ops=%d unknown=%d\n", rounds, c.ops, c.unknowns)
	fmt.Println("skipstress: PASS")
	return nil
}

// checkedMap exposes the map through the conformance interface: the
// point ops and queries pass straight through, Range and Batch translate
// to the checker's vocabulary.
type checkedMap struct{ *skiphash.Map[int64, int64] }

func (a checkedMap) Range(l, r int64, buf []maptest.KV) []maptest.KV {
	for _, p := range a.Map.Range(l, r, nil) {
		buf = append(buf, maptest.KV{Key: p.Key, Val: p.Val})
	}
	return buf
}

func (a checkedMap) Batch(steps []linearize.Step) {
	_ = a.Atomic(func(op *skiphash.Txn[int64, int64]) error {
		linearize.ApplySteps(steps, op.Insert, op.Remove, op.Lookup)
		return nil
	})
}
