package client_test

import (
	"context"
	"fmt"
	"net"
	"os"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/skiphash"
	"repro/skiphash/client"
)

// must panics on err; an example has no *testing.T to fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// serve opens, or recovers, the durable map in dir and serves it on a
// loopback TCP listener. FsyncAlways group-commits: an update the
// server acknowledges is already fsynced.
func serve(dir string) (*skiphash.Map[int64, int64], *server.Server, string) {
	cfg := skiphash.Config{Durability: &skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncAlways}}
	m := must(skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec()))
	srv := server.New(server.NewShardedBackend(m), server.Config{})
	ln := must(net.Listen("tcp", "127.0.0.1:0"))
	go srv.Serve(ln)
	return m, srv, ln.Addr().String()
}

// ExampleDial is the serving lifecycle over TCP: serve a durable map,
// write through a pipelining client, crash the map's durability engine,
// then recover the directory and serve it again.
func ExampleDial() {
	dir := must(os.MkdirTemp("", "skiphash-client-example-*"))
	defer os.RemoveAll(dir)
	m, srv, addr := serve(dir)
	cl := must(client.Dial(addr, client.Options{}))

	// Pipeline a burst on one connection: Flush writes it in one
	// syscall, then each call waits for its own response.
	cn := cl.Conn(0)
	calls := make([]*client.Call, 100)
	for k := range calls {
		calls[k] = must(cn.Start(&wire.Request{Op: wire.OpInsert, Key: int64(k), Val: int64(k) * 7}))
	}
	must(0, cn.Flush())
	for _, call := range calls {
		must(call.Wait())
	}
	// A batch is one transaction on the server: both inserts commit or
	// neither does.
	must(cl.Atomic([]client.Step[int64, int64]{
		{Kind: client.StepInsert, Key: 1000, Val: 1},
		{Kind: client.StepInsert, Key: 1001, Val: 2},
	}))

	// Abandon the durability engine as a kill -9 would, then tear the
	// server down and serve what the directory recovers.
	must(0, m.SimulateCrash())
	cl.Close()
	srv.Shutdown(context.Background())
	m.Close()
	m, srv, addr = serve(dir)
	defer m.Close()
	defer srv.Shutdown(context.Background())
	cl = must(client.Dial(addr, client.Options{}))
	defer cl.Close()

	fmt.Println("pairs recovered:", len(must(cl.Range(0, 2000, 0))))
	for _, k := range []int64{0, 42, 99, 1000, 1001} {
		v, ok, err := cl.Get(k)
		fmt.Println(k, v, ok, err)
	}
	// Output:
	// pairs recovered: 102
	// 0 0 true <nil>
	// 42 294 true <nil>
	// 99 693 true <nil>
	// 1000 1 true <nil>
	// 1001 2 true <nil>
}
