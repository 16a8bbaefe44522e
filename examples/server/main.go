// Server: the full serving lifecycle over real TCP — start a durable
// skiphashd-style server, write through a pipelining protocol client,
// crash the durability engine mid-flight, then reopen the directory
// and serve it again to prove every acknowledged-and-synced write came
// back. This is the start → write → crash → reopen walkthrough for the
// network layer, the wire twin of examples/durable.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/skiphash"
	"repro/skiphash/client"
)

// serve opens (or recovers) the durable map in dir and starts
// serving it on a loopback TCP listener.
func serve(dir string) (*skiphash.Map[int64, int64], *server.Server, string) {
	cfg := skiphash.Config{
		// FsyncAlways group-commits: when the server acknowledges an
		// update, its WAL record is fsynced. The walkthrough relies on
		// that — everything acknowledged before the crash must survive.
		Durability: &skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncAlways},
	}
	m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(server.NewShardedBackend(m), server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	return m, srv, ln.Addr().String()
}

func main() {
	dir, err := os.MkdirTemp("", "skiphash-server-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- Start: recover-or-create the map, serve it over TCP. --------
	m, srv, addr := serve(dir)
	fmt.Printf("serving on tcp://%s (dir %s)\n", addr, dir)

	// --- Write: a protocol client, pipelining a burst. ----------------
	cl, err := client.Dial(addr, client.Options{Conns: 2})
	if err != nil {
		log.Fatal(err)
	}
	cn := cl.Conn(0)
	calls := make([]*client.Call, 0, 100)
	for k := int64(0); k < 100; k++ {
		call, err := cn.Start(&wire.Request{Op: wire.OpInsert, Key: k, Val: k * 7})
		if err != nil {
			log.Fatal(err)
		}
		calls = append(calls, call)
	}
	if err := cn.Flush(); err != nil { // one write syscall for the burst
		log.Fatal(err)
	}
	for _, call := range calls {
		if _, err := call.Wait(); err != nil {
			log.Fatal(err)
		}
	}
	// A wire batch is one atomic transaction server-side: both inserts
	// commit together or not at all, even coalesced among other
	// pipelined traffic.
	if _, err := cl.Atomic([]client.Step{
		{Kind: client.StepInsert, Key: 1000, Val: 1},
		{Kind: client.StepInsert, Key: 1001, Val: 1},
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("pipelined 100 inserts + 1 atomic batch over one connection")

	// --- Crash. -------------------------------------------------------
	// Abandon the durability engine the way a kill -9 would: buffered
	// WAL records are gone, files stay as they were. (FsyncAlways means
	// nothing acknowledged was still buffered.)
	if err := m.SimulateCrash(); err != nil {
		log.Fatal(err)
	}
	cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	srv.Shutdown(ctx)
	cancel()
	m.Close()
	fmt.Println("crashed: WAL abandoned mid-flight, server torn down")

	// --- Reopen: recover and serve the same directory again. ----------
	m2, srv2, addr2 := serve(dir)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
		m2.Close()
	}()
	cl2, err := client.Dial(addr2, client.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer cl2.Close()
	pairs, err := cl2.Range(0, 2000, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered and re-served: %d pairs survive the crash\n", len(pairs))
	for _, k := range []int64{0, 42, 99, 1000, 1001} {
		v, ok, err := cl2.Get(k)
		if err != nil || !ok {
			log.Fatalf("key %d lost across the crash (ok=%v err=%v)", k, ok, err)
		}
		_ = v
	}
	fmt.Println("all acknowledged writes present — start, write, crash, reopen: done")
}
