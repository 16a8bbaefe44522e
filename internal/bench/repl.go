package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/repl"
	"repro/internal/server"
	"repro/skiphash"
	"repro/skiphash/client"
)

// The repl experiment measures what read fan-out over live replicas
// buys and what the watermark barrier costs. One durable primary
// (FsyncNone — the subject is replication, not the disk) streams its
// WAL to up to two in-process replicas, durable and FsyncNone as well;
// primary and replicas each serve the wire protocol on loopback TCP.
// Three closed-loop read series per connection count:
//
//   - primary-only: plain Get against the primary, the baseline every
//     fan-out figure is relative to.
//   - fanout-1 / fanout-2: barriered GetAt round-robined across one or
//     two replicas. Each GetAt pipelines a Watermark probe with the
//     read in one flush, so the series price includes the barrier
//     check, not just the lookup.
//
// The interesting shape: fan-out splits the read load across maps and
// runtimes, so past the primary's saturation point the replica series
// should scale where primary-only flattens.

// ReplWorkload names the repl experiment's op mix.
var ReplWorkload = Workload{Name: "100% barriered lookup", LookupPct: 100}

// replFanouts are the replica counts swept per connection count.
var replFanouts = []int{0, 1, 2}

// Repl runs the replication read fan-out experiment.
func Repl(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	wl := ReplWorkload
	wl.Universe = opts.Universe

	dir, err := os.MkdirTemp("", "skipbench-repl-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{
		Durability: &skiphash.Durability{Dir: filepath.Join(dir, "primary"), Fsync: skiphash.FsyncNone},
	}, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		return err
	}
	defer m.Close()
	prim, err := repl.NewPrimary(m, repl.PrimaryConfig{})
	if err != nil {
		return err
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go prim.Serve(rln)
	defer prim.Shutdown()

	srv := server.New(prim.Backend(server.NewShardedBackend(m)), server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	}()

	// Prefill the whole universe in batched transactions (one WAL
	// record per batch), then bring the replicas up: they arrive after
	// the backlog, so catch-up takes the snapshot path, not a
	// record-by-record tail replay of the prefill.
	const prefillBatch = 512
	for lo := int64(0); lo < wl.Universe; lo += prefillBatch {
		hi := lo + prefillBatch
		if hi > wl.Universe {
			hi = wl.Universe
		}
		if err := m.Atomic(func(tx *skiphash.Txn[int64, int64]) error {
			for k := lo; k < hi; k++ {
				tx.Put(k, k)
			}
			return nil
		}); err != nil {
			return err
		}
	}

	replicaAddrs := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		r, err := repl.NewReplica(repl.ReplicaConfig{Addr: rln.Addr().String(), Map: skiphash.Config{
			Durability: &skiphash.Durability{Dir: filepath.Join(dir, fmt.Sprint("replica-", i)), Fsync: skiphash.FsyncNone},
		}})
		if err != nil {
			return err
		}
		defer r.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		err = r.WaitReady(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("bench: replica %d catch-up: %w", i, err)
		}
		rsrv := server.New(r.Backend(), server.Config{})
		rlnS, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go rsrv.Serve(rlnS)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rsrv.Shutdown(ctx)
		}()
		replicaAddrs = append(replicaAddrs, rlnS.Addr().String())
	}

	fmt.Fprintf(w, "# Repl: %s, universe %d, %v x %d trials, primary + %d replicas over tcp\n",
		wl.Name, wl.Universe, opts.Duration, opts.Trials, len(replicaAddrs))
	fmt.Fprintf(w, "%-8s %18s %15s %15s\n", "conns", "primary-only Mops", "fanout-1 Mops", "fanout-2 Mops")
	for _, conns := range opts.Threads {
		var mops [3]float64
		for fi, fanout := range replFanouts {
			var sum Result
			for trial := 0; trial < opts.Trials; trial++ {
				r, err := runReplTrial(ln.Addr().String(), replicaAddrs[:fanout], conns,
					wl.Universe, opts.Duration, opts.Seed+uint64(trial)*1000)
				if err != nil {
					return err
				}
				sum.Ops += r.Ops
				sum.Elapsed += r.Elapsed
			}
			mops[fi] = sum.Mops()
			if opts.CSV != nil {
				fmt.Fprintf(opts.CSV, "repl,tcp,%d,%d,%.4f\n", conns, fanout, sum.Mops())
			}
		}
		fmt.Fprintf(w, "%-8d %18.3f %15.3f %15.3f\n", conns, mops[0], mops[1], mops[2])
	}
	return nil
}

// runReplTrial drives conns closed-loop readers for one trial: plain
// primary Gets when no replicas are configured, barriered GetAt reads
// fanning out across the replicas otherwise. The zero barrier is
// always below a caught-up replica's watermark, so the series measures
// the barrier's cost, not stale-fallback churn.
func runReplTrial(primaryAddr string, replicas []string, conns int,
	universe int64, duration time.Duration, seed uint64) (Result, error) {
	cl, err := client.Dial(primaryAddr, client.Options{Conns: conns, Replicas: replicas})
	if err != nil {
		return Result{}, err
	}
	defer cl.Close()

	type count struct {
		ops uint64
		_   [7]uint64 // pad to a cache line
	}
	counts := make([]count, conns)
	errs := make(chan error, conns)
	var start, stop sync.WaitGroup
	done := make(chan struct{})
	start.Add(1)
	for i := 0; i < conns; i++ {
		stop.Add(1)
		go func(id int) {
			defer stop.Done()
			rng := rand.New(rand.NewPCG(seed+uint64(id), 0x4e70))
			barriered := len(replicas) > 0
			start.Wait()
			for {
				select {
				case <-done:
					return
				default:
				}
				k := int64(rng.Uint64() % uint64(universe))
				var rerr error
				if barriered {
					_, _, rerr = cl.GetAt(k, 0)
				} else {
					_, _, rerr = cl.Get(k)
				}
				if rerr != nil {
					errs <- rerr
					return
				}
				counts[id].ops++
			}
		}(i)
	}
	began := time.Now()
	start.Done()
	time.Sleep(duration)
	close(done)
	stop.Wait()
	elapsed := time.Since(began)
	select {
	case err := <-errs:
		return Result{}, err
	default:
	}
	var r Result
	for i := range counts {
		r.Ops += counts[i].ops
	}
	r.Elapsed = elapsed
	return r, nil
}
