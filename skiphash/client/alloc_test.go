package client

import (
	"encoding/binary"
	"net"
	"path/filepath"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/skiphash"
)

// allocKeys is how many keys serveUnix preloads: k -> 7k in the default
// map, and the 8-byte big-endian k -> itself in namespace "alloc".
const allocKeys = 64

// servedClient runs an in-process server, with a registry for
// namespaces, on a unix socket and returns a one-connection client of it.
func servedClient(t *testing.T) *Client {
	t.Helper()
	mapCfg := skiphash.Config{}
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, mapCfg)
	t.Cleanup(m.Close)
	reg, err := server.NewRegistry(server.RegistryConfig{Map: mapCfg})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(func() { reg.CloseAll() })
	srv := server.NewWithRegistry(server.NewShardedBackend(m), reg, server.Config{})
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "s.sock"))
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close() })

	cl, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// serveUnix returns one connection to a served client's server and the
// id of its preloaded namespace.
func serveUnix(t *testing.T) (*Conn, uint32) {
	t.Helper()
	cl := servedClient(t)
	ns, err := cl.CreateNamespace("alloc", NamespaceOptions{})
	if err != nil {
		t.Fatalf("CreateNamespace: %v", err)
	}
	for k := int64(0); k < allocKeys; k++ {
		if _, err := cl.Put(k, 7*k); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if _, err := ns.Put(bkey(k), bkey(k)); err != nil {
			t.Fatalf("ns.Put: %v", err)
		}
	}
	return cl.Conn(0), ns.ID()
}

func bkey(k int64) []byte { return binary.BigEndian.AppendUint64(nil, uint64(k)) }

// TestDoAllocBudget pins the closed loop at zero allocations.
// AllocsPerRun counts the whole process, the in-process server included:
// it answers reads without allocating but pays for a transaction on
// every write, so the write rows run against a script server that
// answers from a reused buffer and what is left is the client's cost
// alone. What a write costs the server is the server's budget
// (TestDrainCycleAllocBudget).
func TestDoAllocBudget(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	served, _ := serveUnix(t)
	scripted := scriptServer(t, 1, func(reqs []wire.Request, out []byte) []byte {
		return appendReply(out, &reqs[0])
	})
	for _, c := range []struct {
		name   string
		cn     *Conn
		req    wire.Request
		wantOk bool
	}{
		{"get", served, wire.Request{Op: wire.OpGet, Key: 3}, true},
		{"insert", scripted, wire.Request{Op: wire.OpInsert, Key: 3, Val: 1}, false},
		{"del", scripted, wire.Request{Op: wire.OpDel, Key: 3}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(200, func() {
				req := c.req // Do assigns req.ID
				resp, err := c.cn.Do(&req)
				if err != nil || resp.Ok != c.wantOk {
					t.Fatalf("Do = ok %v, err %v; want ok %v", resp.Ok, err, c.wantOk)
				}
			})
			if allocs != 0 {
				t.Fatalf("Do allocates %.0f/op, budget 0", allocs)
			}
		})
	}
}

func TestBurstAllocBudget(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	const window = 32
	cn, ns := serveUnix(t)
	reqs := make([]wire.Request, window)
	calls := make([]*Call, window)
	burst := func(t *testing.T) {
		for i := range reqs {
			call, err := cn.Start(&reqs[i])
			if err != nil {
				t.Fatalf("Start: %v", err)
			}
			calls[i] = call
		}
		if err := cn.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		for i, call := range calls {
			resp, err := call.Wait()
			if err != nil || !resp.Ok {
				t.Fatalf("call %d: ok %v, err %v", i, resp.Ok, err)
			}
		}
	}
	t.Run("v1", func(t *testing.T) {
		for i := range reqs {
			reqs[i] = wire.Request{Op: wire.OpGet, Key: int64(i)}
		}
		if allocs := testing.AllocsPerRun(100, func() { burst(t) }); allocs != 0 {
			t.Fatalf("burst of %d allocates %.0f, budget 0", window, allocs)
		}
	})
	t.Run("v2", func(t *testing.T) {
		for i := range reqs {
			reqs[i] = wire.Request{Op: wire.OpGet2, NS: ns, BKey: bkey(int64(i))}
		}
		// Per hit: the value copied out of the response frame, which the
		// caller owns — and, on the server's side of this process, the key
		// its parser copies out of the request frame.
		if allocs := testing.AllocsPerRun(100, func() { burst(t) }); allocs > 2*window {
			t.Fatalf("burst of %d Get2 hits allocates %.0f, budget %d", window, allocs, 2*window)
		}
	})
}
