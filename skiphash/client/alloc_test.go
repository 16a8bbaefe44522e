package client

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
	t.Cleanup(func() { m.Close() })
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
	// A v2 burst allocates only the reader's arena chunks: 32 8-byte
	// values take 256 B of a 4 KiB chunk, so a new chunk every ~16
	// bursts, ~0.07 allocations per burst. AllocsPerRun would truncate
	// that to 0, so the row measures the mean.
	t.Run("v2", func(t *testing.T) {
		for i := range reqs {
			reqs[i] = wire.Request{Op: wire.OpGet2, NS: ns, BKey: bkey(int64(i))}
		}
		if allocs := alloctest.PerOp(1600, func() { burst(t) }); allocs > 0.1 {
			t.Fatalf("burst of %d Get2 hits allocates %.3f, budget 0.1 (one 4 KiB arena chunk per ~16 bursts)", window, allocs)
		}
	})
}

// TestKeptResultsOutliveTraffic keeps Get2 values and Range2 pairs
// spanning several of the reader's 4 KiB arena chunks, drives more
// traffic through the same connection — every value overwritten and
// read back — and checks each kept slice byte for byte: a chunk whose
// slices went to a caller is never handed out again.
func TestKeptResultsOutliveTraffic(t *testing.T) {
	cl := servedClient(t)
	ns, err := cl.CreateNamespace("keep", NamespaceOptions{})
	if err != nil {
		t.Fatalf("CreateNamespace: %v", err)
	}
	const n = 600 // 25-byte values: ~15 KiB of Get2 results, ~20 KiB of pairs
	val := func(k, round int) []byte { return fmt.Appendf(nil, "value %06d round %06d", k, round) }
	put := func(round int) {
		for k := range n {
			if _, err := ns.Put(bkey(int64(k)), val(k, round)); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
	}
	type kept struct{ got, want []byte }
	var keep []kept
	get := func(round int) {
		for k := range n {
			v, ok, err := ns.Get(bkey(int64(k)))
			if err != nil || !ok {
				t.Fatalf("Get(%d): ok %v, err %v", k, ok, err)
			}
			keep = append(keep, kept{v, val(k, round)})
		}
	}
	scan := func(round int) {
		pairs, err := ns.RangeFrom(nil, 0)
		if err != nil || len(pairs) != n {
			t.Fatalf("RangeFrom: %d pairs, err %v", len(pairs), err)
		}
		for k, p := range pairs {
			keep = append(keep, kept{p.Key, bkey(int64(k))}, kept{p.Val, val(k, round)})
		}
	}
	put(0)
	get(0)
	scan(0)
	kept0 := len(keep)
	put(1)
	get(1)
	scan(1)
	// An append to a kept slice must not reach its neighbour in the chunk.
	_ = append(keep[0].got, "clobber"...)
	for i, kp := range keep {
		if !bytes.Equal(kp.got, kp.want) {
			t.Fatalf("kept slice %d (of %d from the first round) = %q, want %q", i, kept0, kp.got, kp.want)
		}
	}
}
