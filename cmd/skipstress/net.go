package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linearize"
	"repro/internal/maptest"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/skiphash"
	"repro/skiphash/client"
)

// runNet is the serving-layer stress: it starts an in-process server
// around a skip hash plus nsCount byte-string namespaces, drives
// every one of them concurrently with its own seeded -check workload
// through real protocol clients over one loopback TCP connection pool,
// and verifies each tenant's client-side invoke/return history against
// the sequential ordered-map model with internal/linearize — so the
// wire codec, the per-connection executor's coalesced transactions, and
// response demultiplexing are all inside the checked box. Namespace
// workloads carry their int64 keys and values as 8-byte big-endian
// strings — order-preserving for non-negative keys — so they check
// against the same model. The tenants share the server's executor,
// connections, and drain cycles, v1 and v2 runs interleaved, so the
// checker also audits that runs never bleed across namespace
// boundaries. After the rounds, dropping one namespace must leave the
// others untouched, and the default map must pass a quiescent invariant
// audit. Any failure is returned (a counterexample history has by then
// gone to stderr).
func runNet(threads int, duration time.Duration, seed uint64, nsCount, lookupPct int) error {
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	reg, err := server.NewRegistry(server.RegistryConfig{})
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	srv := server.NewWithRegistry(server.NewShardedBackend(m), reg, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	cl, err := client.Dial(ln.Addr().String(), client.Options{Conns: threads})
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	// Worker budget: the threads are split across the tenants, but every
	// tenant keeps at least two concurrent clients (when there are two
	// to give) so its own history has real contention.
	opts := checkOptions(max(threads/(1+nsCount), min(threads, 2)), lookupPct)
	tenants := []*checked{{name: "the default map", m: netAdapter{c: cl}, opts: opts}}
	for i := 0; i < nsCount; i++ {
		ns, err := cl.CreateNamespace(fmt.Sprintf("stress-%d", i), client.NamespaceOptions{})
		if err != nil {
			return fmt.Errorf("create namespace %d: %w", i, err)
		}
		tenants = append(tenants, &checked{name: "namespace " + ns.Name(), m: nsAdapter{ns: ns}, opts: opts})
	}
	mode, variant := "-net", "over tcp"
	if nsCount > 0 {
		mode = "-net -namespaces"
		variant = fmt.Sprintf("default map + %d namespaces, over tcp", nsCount)
	}
	fmt.Printf("skipstress: %s, %d client conns, %v, universe %d, seed %d, lookup%%=%d, %s\n",
		mode, threads, duration, checkUniverse, seed, lookupPct, variant)

	deadline := time.Now().Add(duration)
	rounds := 0
	for ; time.Now().Before(deadline); rounds++ {
		var wg sync.WaitGroup
		var failed atomic.Bool
		for i, t := range tenants {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !t.round(rounds, seed+uint64(rounds)*1_000_003+uint64(i)*7_654_321) {
					failed.Store(true)
				}
				// This tenant's clients have joined, so its map is quiescent
				// whatever the other tenants are doing: read the state its
				// next round starts from, through the wire like everything
				// else.
				t.readAll()
			}()
		}
		wg.Wait()
		if failed.Load() {
			return fmt.Errorf("round %d: non-linearizable history", rounds)
		}
	}

	// Tenant isolation spot check: dropping one namespace must stop it
	// answering and must not disturb the others, the default map included.
	if nsCount > 0 {
		dropped := tenants[1].m.(nsAdapter).ns
		if err := cl.DropNamespace(dropped.Name()); err != nil {
			return fmt.Errorf("drop: %w", err)
		}
		if _, _, err := dropped.Get(be64(1)); !errors.Is(err, client.ErrNamespaceNotFound) {
			return fmt.Errorf("dropped namespace still answering (err %v)", err)
		}
		for i, t := range tenants {
			if i == 1 {
				continue // the dropped one
			}
			before := len(t.snapshot)
			if t.readAll(); len(t.snapshot) != before {
				return fmt.Errorf("%s changed across a sibling drop: %d pairs, want %d", t.name, len(t.snapshot), before)
			}
		}
	}

	cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server drain: %w", err)
	}
	if err := <-served; err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := m.CheckInvariants(skiphash.CheckOptions{}); err != nil {
		return fmt.Errorf("served map invariants after %d rounds: %w", rounds, err)
	}
	m.Close()
	totalOps, unknowns := 0, 0
	for _, t := range tenants {
		totalOps += t.ops
		unknowns += t.unknowns
	}
	fmt.Printf("rounds=%d ops=%d unknown=%d\n", rounds, totalOps, unknowns)
	fmt.Println("skipstress: PASS")
	return nil
}

// be64 encodes a non-negative int64 as its order-preserving 8-byte
// big-endian string.
func be64(k int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(k))
	return b[:]
}

func unbe64(b []byte) int64 {
	if len(b) != 8 {
		fmt.Fprintf(os.Stderr, "skipstress: namespace value %x is not 8 bytes\n", b)
		os.Exit(1)
	}
	return int64(binary.BigEndian.Uint64(b))
}

// nsAdapter exposes one namespace handle through the conformance
// interface, bridging the int64 workload onto byte-string keys.
type nsAdapter struct {
	ns *client.Namespace
}

func (a nsAdapter) fatal(op string, err error) {
	fmt.Fprintf(os.Stderr, "skipstress: transport failure during %s %s: %v\n", a.ns.Name(), op, err)
	os.Exit(1)
}

func (a nsAdapter) Lookup(k int64) (int64, bool) {
	v, ok, err := a.ns.Get(be64(k))
	if err != nil {
		a.fatal("Get2", err)
	}
	if !ok {
		return 0, false
	}
	return unbe64(v), true
}

func (a nsAdapter) Insert(k, v int64) bool {
	ok, err := a.ns.Insert(be64(k), be64(v))
	if err != nil {
		a.fatal("Insert2", err)
	}
	return ok
}

func (a nsAdapter) Remove(k int64) bool {
	ok, err := a.ns.Remove(be64(k))
	if err != nil {
		a.fatal("Del2", err)
	}
	return ok
}

func (a nsAdapter) Range(l, r int64, buf []maptest.KV) []maptest.KV {
	pairs, err := a.ns.Range(be64(l), be64(r), 0)
	if err != nil {
		a.fatal("Range2", err)
	}
	for _, p := range pairs {
		buf = append(buf, maptest.KV{Key: unbe64(p.Key), Val: unbe64(p.Val)})
	}
	return buf
}

// Batch implements maptest.Batcher over the wire's v2 atomic batch.
func (a nsAdapter) Batch(steps []linearize.Step) {
	ws := make([]client.BStep, len(steps))
	for i, s := range steps {
		switch s.Kind {
		case linearize.Insert:
			ws[i] = client.BStep{Kind: client.StepInsert, Key: be64(s.Key), Val: be64(s.Val)}
		case linearize.Remove:
			ws[i] = client.BStep{Kind: client.StepRemove, Key: be64(s.Key)}
		case linearize.Lookup:
			ws[i] = client.BStep{Kind: client.StepLookup, Key: be64(s.Key)}
		}
	}
	results, err := a.ns.Atomic(ws)
	if err != nil {
		a.fatal("Batch2", err)
	}
	if len(results) != len(steps) {
		a.fatal("Batch2", fmt.Errorf("%d results for %d steps", len(results), len(steps)))
	}
	for i := range steps {
		steps[i].Ok = results[i].Ok
		if results[i].Ok && steps[i].Kind == linearize.Lookup {
			steps[i].Out = unbe64(results[i].Val)
		}
	}
}

// netAdapter exposes a protocol client through the conformance
// interface, so the recorded history is exactly what network callers
// observed. Transport errors are fatal: the stress tool's subject is a
// loopback server in the same process, where any failure is a bug.
type netAdapter struct {
	c *client.Client
}

func (a netAdapter) fatal(op string, err error) {
	fmt.Fprintf(os.Stderr, "skipstress: transport failure during %s: %v\n", op, err)
	os.Exit(1)
}

func (a netAdapter) Lookup(k int64) (int64, bool) {
	v, ok, err := a.c.Get(k)
	if err != nil {
		a.fatal("Get", err)
	}
	return v, ok
}

func (a netAdapter) Insert(k, v int64) bool {
	ok, err := a.c.Insert(k, v)
	if err != nil {
		a.fatal("Insert", err)
	}
	return ok
}

func (a netAdapter) Remove(k int64) bool {
	ok, err := a.c.Remove(k)
	if err != nil {
		a.fatal("Remove", err)
	}
	return ok
}

func (a netAdapter) Range(l, r int64, buf []maptest.KV) []maptest.KV {
	pairs, err := a.c.Range(l, r, 0)
	if err != nil {
		a.fatal("Range", err)
	}
	for _, p := range pairs {
		buf = append(buf, maptest.KV{Key: p.Key, Val: p.Val})
	}
	return buf
}

// Batch implements maptest.Batcher over the wire's atomic batch op.
func (a netAdapter) Batch(steps []linearize.Step) {
	ws := make([]wire.Step, len(steps))
	for i, s := range steps {
		switch s.Kind {
		case linearize.Insert:
			ws[i] = wire.Step{Kind: wire.StepInsert, Key: s.Key, Val: s.Val}
		case linearize.Remove:
			ws[i] = wire.Step{Kind: wire.StepRemove, Key: s.Key}
		case linearize.Lookup:
			ws[i] = wire.Step{Kind: wire.StepLookup, Key: s.Key}
		}
	}
	results, err := a.c.Atomic(ws)
	if err != nil {
		a.fatal("Atomic", err)
	}
	if len(results) != len(steps) {
		a.fatal("Atomic", fmt.Errorf("%d results for %d steps", len(results), len(steps)))
	}
	for i := range steps {
		steps[i].Ok = results[i].Ok
		steps[i].Out = results[i].Out
	}
}
