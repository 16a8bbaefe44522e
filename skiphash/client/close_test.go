package client

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/skiphash"
)

// holdListener accepts connections and holds them open silently.
func holdListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
		}
	}()
	return ln
}

func TestCloseIsIdempotent(t *testing.T) {
	ln := holdListener(t)
	cl, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	cn := cl.Conn(0)
	if err := cn.Close(); err != nil {
		t.Fatalf("first Close = %v, want nil", err)
	}
	if err := cn.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("pool Close after conn Close = %v, want nil", err)
	}
}

func TestCloseSurfacesPriorReaderFailure(t *testing.T) {
	// A server that hangs up immediately: the read loop fails with the
	// wrapped transport error before Close runs, and Close must report
	// that original cause instead of swallowing it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			nc.Close()
		}
	}()
	cl, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	cn := cl.Conn(0)
	select {
	case <-cn.readerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("reader did not observe the hangup")
	}
	cerr := cn.Close()
	if cerr == nil {
		t.Fatal("Close after reader failure = nil, want the original cause")
	}
	if !errors.Is(cerr, ErrConnClosed) {
		t.Fatalf("Close error %v does not match ErrConnClosed", cerr)
	}
	if cerr == ErrConnClosed {
		t.Fatal("Close returned the bare sentinel, losing the original cause")
	}
	// Idempotent even after a failure: the second Close reports the
	// same sticky cause, and the socket is not double-closed (no panic,
	// no new error kind).
	if again := cn.Close(); !errors.Is(again, ErrConnClosed) {
		t.Fatalf("second Close = %v", again)
	}
}

func TestCloseFailsInFlightCalls(t *testing.T) {
	ln := holdListener(t)
	cl, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	cn := cl.Conn(0)
	call, err := cn.Start(&wire.Request{Op: wire.OpGet, Key: 1})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := cn.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	done := make(chan error, 1)
	go func() { _, werr := call.Wait(); done <- werr }()
	if err := cn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case werr := <-done:
		if !errors.Is(werr, ErrConnClosed) {
			t.Fatalf("in-flight call failed with %v, want ErrConnClosed", werr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight call never failed after Close")
	}
}

// stampedBackend wraps a served map with a fixed watermark (and an
// optional promote hook), standing in for a replica backend.
type stampedBackend struct {
	server.Backend
	watermark uint64
}

func (b *stampedBackend) Watermark() uint64 { return b.watermark }

func serveBackend(t *testing.T, be server.Backend) string {
	t.Helper()
	srv := server.New(be, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func TestGetAtFansOutOverReplicas(t *testing.T) {
	primary := skiphash.NewSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Shards: 1})
	primary.Put(1, 100)
	pAddr := serveBackend(t, server.NewShardedBackend(primary))

	// Replica A is stale in both senses: watermark below any barrier
	// and a wrong (old) value. Replica B is caught up.
	stale := skiphash.NewSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Shards: 1})
	stale.Put(1, -1)
	staleAddr := serveBackend(t, &stampedBackend{Backend: server.NewShardedBackend(stale), watermark: 5})
	fresh := skiphash.NewSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Shards: 1})
	fresh.Put(1, 100)
	freshAddr := serveBackend(t, &stampedBackend{Backend: server.NewShardedBackend(fresh), watermark: 50})

	cl, err := Dial(pAddr, Options{Replicas: []string{staleAddr, freshAddr}})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if cl.NumReplicas() != 2 {
		t.Fatalf("NumReplicas = %d", cl.NumReplicas())
	}
	// The barrier must route around the stale replica regardless of
	// round-robin position.
	for i := 0; i < 8; i++ {
		v, ok, err := cl.GetAt(1, 10)
		if err != nil || !ok || v != 100 {
			t.Fatalf("GetAt(1, 10) = %d %v %v; want 100 true nil", v, ok, err)
		}
	}
	// Both replicas below the barrier: the primary answers.
	for i := 0; i < 4; i++ {
		v, ok, err := cl.GetAt(1, 60)
		if err != nil || !ok || v != 100 {
			t.Fatalf("GetAt(1, 60) = %d %v %v; want primary fallback 100 true nil", v, ok, err)
		}
	}
	// The primary has no Watermarker here, so Watermark must error, not
	// invent a stamp.
	if _, err := cl.Watermark(); err == nil {
		t.Fatal("Watermark against a plain backend = nil error")
	}
	if err := cl.Promote(); err == nil {
		t.Fatal("Promote against a plain backend = nil error")
	}
}

func TestStatusReadOnlyMapsToErrReadOnly(t *testing.T) {
	if err := statusError(&wire.Response{Status: wire.StatusReadOnly, Msg: "replica"}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("StatusReadOnly mapped to %v", err)
	}
}
