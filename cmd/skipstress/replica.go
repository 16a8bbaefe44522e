package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/repl"
	"repro/internal/server"
	"repro/skiphash"
	"repro/skiphash/client"
)

// runReplica is the replicated serving stress. Topology: one durable
// primary (temp dir, FsyncNone) streams its WAL to two in-process
// replicas, durable in directories of their own; the primary and both
// replicas each serve the protocol on loopback TCP. The -check workload
// runs through a client whose lookups alternate plain primary reads
// with watermark-barriered replica reads, so the consistency contract —
// a replica whose watermark strictly exceeds X serves every commit at
// or below X — is inside the linearizability-checked box.
//
// A quarter of the way through, replica B is closed and restarted over
// its directory: it recovers its own log, resumes from its saved
// position, and must catch up with no full resync. Halfway through, a
// quiescent failover: the primary is shut down, the caught-up replica A
// is promoted over the wire, and the workload
// continues against A alone. Replica B is dropped from reads — commit
// stamps are only comparable within one primary lineage, and B never
// sees A's post-promotion commits. Every round's history, before and
// after the failover, must linearize; the promoted map must pass the
// final structural audit.
func runReplica(threads int, duration time.Duration, seed uint64, lookupPct int, reproducer string) {
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
		fmt.Fprintf(os.Stderr, "reproduce with: %s\n", reproducer)
		os.Exit(1)
	}

	// Primary: durable map whose WAL is the replication stream. Small
	// segments make every run stream across rotations.
	root, err := os.MkdirTemp("", "skipstress-replica-*")
	if err != nil {
		fail("tempdir: %v", err)
	}
	defer os.RemoveAll(root)
	durable := func(name string) skiphash.Config {
		return skiphash.Config{Durability: &skiphash.Durability{
			Dir: filepath.Join(root, name), Fsync: skiphash.FsyncNone, SegmentBytes: 64 << 10,
		}}
	}
	pm, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, durable("primary"),
		skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		fail("open primary: %v", err)
	}
	prim, err := repl.NewPrimary(pm, repl.PrimaryConfig{})
	if err != nil {
		fail("%v", err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail("replication listen: %v", err)
	}
	go prim.Serve(rln)

	listenServe := func(be server.Backend) (*server.Server, net.Listener) {
		srv := server.New(be, server.Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail("listen: %v", err)
		}
		go srv.Serve(ln)
		return srv, ln
	}
	drain := func(what string, srv *server.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fail("%s drain: %v", what, err)
		}
	}
	srvP, lnP := listenServe(prim.Backend(server.NewShardedBackend(pm)))

	// Two replicas, each serving its own read-only backend.
	newReplica := func(name string) (*repl.Replica, *server.Server, net.Listener) {
		r, err := repl.NewReplica(repl.ReplicaConfig{Addr: rln.Addr().String(), Map: durable(name), RedialEvery: 20 * time.Millisecond})
		if err != nil {
			fail("replica %s: %v", name, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := r.WaitReady(ctx); err != nil {
			fail("replica catch-up: %v", err)
		}
		srv, ln := listenServe(r.Backend())
		return r, srv, ln
	}
	rA, srvA, lnA := newReplica("a")
	rB, srvB, lnB := newReplica("b")
	dial := func() *client.Client {
		cl, err := client.Dial(lnP.Addr().String(), client.Options{
			Conns:    threads,
			Replicas: []string{lnA.Addr().String(), lnB.Addr().String()},
		})
		if err != nil {
			fail("dial: %v", err)
		}
		return cl
	}
	cl := dial()
	fmt.Printf("skipstress: -replica, %d client conns, %v, universe %d, seed %d, lookup%%=%d, primary + 2 replicas over tcp\n",
		threads, duration, checkUniverse, seed, lookupPct)

	// One history runs through both phases: phase 2 continues from the
	// snapshot the dead primary last produced.
	c := checked{name: "the replicated map", opts: checkOptions(threads, lookupPct)}
	rounds := 0
	runRounds := func(until time.Time) {
		c.m = &replAdapter{netAdapter: defaultAdapter(cl), c: cl} // cl is this phase's client
		for first := true; first || time.Now().Before(until); first = false {
			if !c.round(rounds, seed+uint64(rounds)*1_000_003) {
				fmt.Fprintf(os.Stderr, "reproduce with: %s\n", reproducer)
				os.Exit(1)
			}
			c.readAll()
			rounds++
		}
	}

	// Phase 1: primary serving, barriered reads fanning out over both
	// replicas.
	start := time.Now()
	runRounds(start.Add(duration / 4))

	// Restart B between rounds: reopened over its directory, it resumes
	// from the position it last saved, which the primary's log still
	// holds — no full resync on either side. The client is redialed to
	// its new address.
	cl.Close()
	drain("replica B", srvB)
	if err := rB.Close(); err != nil {
		fail("replica B close: %v", err)
	}
	served := prim.Stats().Resyncs
	rB, srvB, lnB = newReplica("b")
	if n, m := rB.Stats().Resyncs, prim.Stats().Resyncs; n != 0 || m != served {
		fail("restarted replica B took a full resync (replica %d, primary %d -> %d)", n, served, m)
	}
	fmt.Printf("skipstress: restarted replica B after %d rounds: resumed at watermark %d\n", rounds, rB.Watermark())
	cl = dial()
	runRounds(start.Add(duration / 2))
	rounds1 := rounds

	// Failover at rest. The workload is joined, so a primary
	// watermark taken now covers every commit; both replicas must pass
	// it, and the caught-up replica A must hold exactly the primary's
	// state.
	x, err := cl.Watermark()
	if err != nil {
		fail("pre-failover watermark: %v", err)
	}
	waitDeadline := time.Now().Add(30 * time.Second)
	for rA.Watermark() <= x || rB.Watermark() <= x {
		if time.Now().After(waitDeadline) {
			fail("replicas did not pass primary watermark %d (A=%d B=%d)", x, rA.Watermark(), rB.Watermark())
		}
		time.Sleep(2 * time.Millisecond)
	}
	want := pm.Range(math.MinInt64, math.MaxInt64, nil)
	got := rA.Map().Range(math.MinInt64, math.MaxInt64, nil)
	if len(want) != len(got) {
		fail("pre-promotion divergence: primary %d pairs, replica %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			fail("pre-promotion divergence at %+v vs %+v", want[i], got[i])
		}
	}

	// Kill the primary: serving drained, stream shut, map closed.
	cl.Close()
	drain("primary", srvP)
	prim.Shutdown()
	pm.Close()

	// Promote A over the wire and repoint the client at it alone.
	cl, err = client.Dial(lnA.Addr().String(), client.Options{Conns: threads})
	if err != nil {
		fail("dial promoted: %v", err)
	}
	if err := cl.Promote(); err != nil {
		fail("promote: %v", err)
	}
	fmt.Printf("skipstress: failed over after %d rounds: promoted replica at watermark %d\n", rounds1, rA.Watermark())

	// Phase 2: the promoted node serves reads and writes.
	runRounds(start.Add(duration))

	cl.Close()
	drain("promoted", srvA)
	drain("replica B", srvB)
	rB.Close()

	mA := rA.Map()
	if err := mA.CheckInvariants(skiphash.CheckOptions{}); err != nil {
		fail("promoted map invariants: %v", err)
	}
	rA.Close()
	fmt.Printf("rounds=%d ops=%d unknown=%d (pre-failover %d, post %d)\n",
		rounds, c.ops, c.unknowns, rounds1, rounds-rounds1)
	fmt.Println("skipstress: PASS")
}

// replAdapter drives lookups alternately through the plain primary
// read and the watermark-barriered replica read: the barrier stamp is
// taken inside the operation's invoke/return window, so whatever state
// the chosen replica serves is a valid linearization point — it
// contains every commit at or below the barrier and nothing that had
// not committed by the time the response arrived. With no replicas
// configured (post-promotion) every lookup is a plain read.
type replAdapter struct {
	netAdapter[int64]
	c    *client.Client
	flip atomic.Uint64
}

func (a *replAdapter) Lookup(k int64) (int64, bool) {
	if a.c.NumReplicas() > 0 && a.flip.Add(1)&1 == 0 {
		x, err := a.c.Watermark()
		if err != nil {
			a.fatal("Watermark", err)
		}
		v, ok, err := a.c.GetAt(k, x)
		if err != nil {
			a.fatal("GetAt", err)
		}
		return v, ok
	}
	return a.netAdapter.Lookup(k)
}
