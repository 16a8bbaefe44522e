package maptest

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/linearize"
	"repro/internal/stm"
)

// Batcher is implemented by maps supporting multi-key atomic batches
// (the skip hash's Atomic). Batch applies steps in order as one atomic
// unit, filling in each step's outputs.
type Batcher interface {
	Batch(steps []linearize.Step)
}

// HookInstaller is implemented by adapters whose map can accept STM
// schedule/fault hooks (see stm.Hooks). Installing nil removes them.
// The linearizability suite uses it for fault-injection and
// deterministic-schedule phases; maps without an STM runtime simply
// don't implement it and skip those phases.
type HookInstaller interface {
	InstallSTMHooks(h stm.Hooks)
}

// WorkloadOptions parameterizes RecordHistory. Every random choice
// derives from Seed, so one seed regenerates the identical per-client
// operation streams.
type WorkloadOptions struct {
	// Clients is the number of concurrent client goroutines.
	Clients int
	// OpsPerClient is each client's operation count.
	OpsPerClient int
	// Universe draws keys from [0, Universe).
	Universe int64
	// Seed derives all random choices.
	Seed uint64
	// PointQueries mixes in Ceil/Floor/Succ/Pred (needs Queryable).
	PointQueries bool
	// Ranges mixes in short range queries.
	Ranges bool
	// Batches mixes in 2-4 step atomic batches (needs Batcher).
	Batches bool
	// LookupPct, when positive, reserves that percentage of operations
	// for point lookups — the read-heavy mix that drives the optimistic
	// read fast path — while the remaining operations keep the default
	// mix's relative weights. Zero keeps the default mix.
	LookupPct int
	// Scheduler, when set, serializes the run under the deterministic
	// step scheduler: workers attach to it and are started one at a
	// time so the interleaving derives from the scheduler's seed.
	Scheduler *stm.StepScheduler
}

// RecordHistory runs the seeded workload against m and returns the
// merged invoke/return history for linearizability checking.
func RecordHistory(m OrderedMap, o WorkloadOptions) []linearize.Op {
	q, hasQ := m.(Queryable)
	b, hasB := m.(Batcher)
	rec := linearize.NewRecorder()
	clients := make([]*linearize.Client, o.Clients)
	for c := range clients {
		clients[c] = rec.NewClient(c)
	}
	if o.Scheduler != nil {
		o.Scheduler.Freeze()
	}
	var wg sync.WaitGroup
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int, cl *linearize.Client) {
			defer wg.Done()
			if o.Scheduler != nil {
				o.Scheduler.Attach()
				defer o.Scheduler.Detach()
			}
			rng := rand.New(rand.NewPCG(o.Seed, uint64(c)+1))
			for i := 0; i < o.OpsPerClient; i++ {
				k := int64(rng.Uint64() % uint64(o.Universe))
				v := int64(c)<<24 | int64(i)<<4
				op := linearize.Op{Key: k}
				r := rng.Uint64() % 100
				if pct := uint64(o.LookupPct); pct > 0 {
					if r < pct {
						// Out-of-range r falls through every case below to
						// the default arm, which is Lookup.
						r = 100
					} else {
						// Rescale the residual draw so the other ops keep
						// their relative weights.
						r = (r - pct) * 100 / (100 - pct)
					}
				}
				switch {
				case r < 30:
					op.Kind = linearize.Insert
					op.Val = v
					op.Call = cl.Now()
					op.Ok = m.Insert(k, v)
					op.Return = cl.Now()
				case r < 55:
					op.Kind = linearize.Remove
					op.Call = cl.Now()
					op.Ok = m.Remove(k)
					op.Return = cl.Now()
				case r < 83 && o.PointQueries && hasQ:
					op.Kind = linearize.Ceil + linearize.Kind(rng.Uint64()%4)
					var fn func(int64) (int64, int64, bool)
					switch op.Kind {
					case linearize.Ceil:
						fn = q.Ceil
					case linearize.Floor:
						fn = q.Floor
					case linearize.Succ:
						fn = q.Succ
					default:
						fn = q.Pred
					}
					op.Call = cl.Now()
					op.OutKey, op.OutVal, op.Ok = fn(k)
					op.Return = cl.Now()
				case r < 91 && o.Ranges:
					op.Kind = linearize.Range
					op.Lo = k
					op.Hi = k + int64(rng.Uint64()%uint64(o.Universe/2+1))
					op.Call = cl.Now()
					op.Pairs = m.Range(op.Lo, op.Hi, nil)
					op.Return = cl.Now()
				case r < 96 && o.Batches && hasB:
					op.Kind = linearize.Batch
					steps := make([]linearize.Step, 2+rng.Uint64()%3)
					for s := range steps {
						steps[s].Key = int64(rng.Uint64() % uint64(o.Universe))
						switch rng.Uint64() % 3 {
						case 0:
							steps[s].Kind = linearize.Insert
							steps[s].Val = v | int64(s)
						case 1:
							steps[s].Kind = linearize.Remove
						default:
							steps[s].Kind = linearize.Lookup
						}
					}
					op.Steps = steps
					op.Call = cl.Now()
					b.Batch(steps)
					op.Return = cl.Now()
				default:
					op.Kind = linearize.Lookup
					op.Call = cl.Now()
					op.OutVal, op.Ok = m.Lookup(k)
					op.Return = cl.Now()
				}
				cl.Add(op)
			}
		}(c, clients[c])
		if o.Scheduler != nil {
			// Deterministic start order: wait for this worker to park at
			// its first instrumentation point before starting the next.
			deadline := time.Now().Add(20 * time.Second)
			for o.Scheduler.Waiting() != c+1 && time.Now().Before(deadline) {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	if o.Scheduler != nil {
		o.Scheduler.Release()
	}
	wg.Wait()
	return linearize.Merge(clients...)
}

// linSeeds are the workload seeds every linearizability phase runs.
var linSeeds = []uint64{1, 7, 42}

// checkWorkload records one seeded workload on a fresh map and verifies
// the history, failing the test with a reproducible report on a
// violation.
func checkWorkload(t *testing.T, newMap Factory, o WorkloadOptions) {
	t.Helper()
	m := newMap()
	h := RecordHistory(m, o)
	res := linearize.Check(h)
	// The structural audit is valid (and wanted) regardless of the
	// checker's verdict.
	checkIdle(t, m)
	if res.Unknown {
		t.Logf("seed %d: checker budget exhausted on a %d-key partition (%d ops); inconclusive",
			o.Seed, len(res.PartitionKeys), len(res.Ops))
		return
	}
	if !res.Ok {
		t.Fatalf("non-linearizable history (seed %d, partition keys %v):\n%s",
			o.Seed, res.PartitionKeys, linearize.FormatOps(res.Ops))
	}
}

// RunLinearizability records and machine-checks invoke/return histories
// against the sequential ordered-map model across several phases:
// contended single-key traffic (checked per key), mixed traffic with
// range and point queries (one fused partition), atomic batches, and —
// for maps exposing their STM runtime — the same traffic under seeded
// fault injection and under the deterministic step scheduler.
func RunLinearizability(t *testing.T, newMap Factory) {
	probe := newMap()
	_, hasQ := probe.(Queryable)
	_, hasB := probe.(Batcher)
	_, hasHooks := probe.(HookInstaller)

	t.Run("PerKey", func(t *testing.T) {
		for _, seed := range linSeeds {
			checkWorkload(t, newMap, WorkloadOptions{
				Clients: 4, OpsPerClient: 150, Universe: 8, Seed: seed,
			})
		}
	})
	t.Run("Mixed", func(t *testing.T) {
		for _, seed := range linSeeds {
			checkWorkload(t, newMap, WorkloadOptions{
				Clients: 3, OpsPerClient: 50, Universe: 8, Seed: seed,
				PointQueries: hasQ, Ranges: true,
			})
		}
	})
	t.Run("Batch", func(t *testing.T) {
		if !hasB {
			t.Skip("map does not implement atomic batches")
		}
		for _, seed := range linSeeds {
			checkWorkload(t, newMap, WorkloadOptions{
				Clients: 3, OpsPerClient: 60, Universe: 6, Seed: seed,
				Batches: true,
			})
		}
	})
	t.Run("Faults", func(t *testing.T) {
		if !hasHooks {
			t.Skip("map does not expose STM hooks")
		}
		for _, seed := range linSeeds {
			m := newMap()
			inj := stm.NewAbortInjector(seed, 1, 4)
			m.(HookInstaller).InstallSTMHooks(inj)
			h := RecordHistory(m, WorkloadOptions{
				Clients: 4, OpsPerClient: 120, Universe: 8, Seed: seed,
			})
			m.(HookInstaller).InstallSTMHooks(nil)
			if inj.Aborts() == 0 {
				t.Fatalf("seed %d: fault injector never aborted an attempt (%d firings)",
					seed, inj.Injected())
			}
			res := linearize.Check(h)
			if !res.Ok && !res.Unknown {
				t.Fatalf("injected aborts broke linearizability (seed %d):\n%s",
					seed, linearize.FormatOps(res.Ops))
			}
			checkIdle(t, m)
		}
	})
	t.Run("Scheduled", func(t *testing.T) {
		if !hasHooks {
			t.Skip("map does not expose STM hooks")
		}
		for _, seed := range linSeeds {
			m := newMap()
			sched := stm.NewStepScheduler(seed)
			m.(HookInstaller).InstallSTMHooks(sched)
			h := RecordHistory(m, WorkloadOptions{
				Clients: 3, OpsPerClient: 40, Universe: 4, Seed: seed,
				Scheduler: sched,
			})
			m.(HookInstaller).InstallSTMHooks(nil)
			if sched.Steps() == 0 {
				t.Fatalf("seed %d: step scheduler made no decisions", seed)
			}
			res := linearize.Check(h)
			if !res.Ok && !res.Unknown {
				t.Fatalf("scheduled interleaving not linearizable (seed %d):\n%s",
					seed, linearize.FormatOps(res.Ops))
			}
			checkIdle(t, m)
		}
	})
}
