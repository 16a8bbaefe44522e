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

// freeCalls counts the connection's free list.
func freeCalls(cn *Conn) int {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	n := 0
	for call := cn.free; call != nil; call = call.next {
		n++
	}
	return n
}

// Close arrives with a window half delivered: the answered half has its
// responses, the rest — one of them already blocked in Wait — fails with
// ErrConnClosed, and no call is completed twice.
func TestCloseFailsInFlightCalls(t *testing.T) {
	const window = 8
	cn := scriptServer(t, window, func(reqs []wire.Request, out []byte) []byte {
		for i := range reqs[:window/2] {
			out = appendReply(out, &reqs[i])
		}
		return out
	})
	calls := startGets(t, cn, seq(window))
	errs := make([]error, window)
	delivered, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i, call := range calls {
			if i == window/2 {
				close(delivered)
			}
			var resp wire.Response
			if resp, errs[i] = call.Wait(); errs[i] == nil && resp.Val != 7*int64(i) {
				t.Errorf("call %d = %d, want %d", i, resp.Val, 7*i)
			}
		}
	}()
	select {
	case <-delivered:
	case <-time.After(10 * time.Second):
		t.Fatal("the answered half of the window never completed")
	}
	if err := cn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight calls never failed after Close")
	}
	for i, err := range errs {
		if i < window/2 && err != nil {
			t.Fatalf("answered call %d failed with %v", i, err)
		}
		if i >= window/2 && !errors.Is(err, ErrConnClosed) {
			t.Fatalf("in-flight call %d failed with %v, want ErrConnClosed", i, err)
		}
		if n := len(calls[i].done); n != 0 {
			t.Fatalf("call %d holds %d completions after its Wait", i, n)
		}
	}
	// Every call came back; a Start on the dead connection reports the
	// sticky error before it takes one.
	if n := freeCalls(cn); n != window {
		t.Fatalf("free list holds %d calls, want %d", n, window)
	}
	if _, err := cn.Start(&wire.Request{Op: wire.OpGet, Key: 1}); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Start after Close = %v, want ErrConnClosed", err)
	}
	if n := freeCalls(cn); n != window {
		t.Fatalf("free list holds %d calls after a refused Start, want %d", n, window)
	}
}

// brokenWrites is a transport whose peer never speaks and whose every
// write fails.
type brokenWrites struct{ net.Conn }

func (brokenWrites) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// A request whose write fails is taken back, and getAt waits for the
// call it had already started: nothing stays registered or unwaited.
func TestWriteFailureLeavesNoCallBehind(t *testing.T) {
	for _, c := range []struct {
		name  string
		issue func(cn *Conn) error
		calls int
	}{
		{"Do", func(cn *Conn) error { _, err := cn.Do(&wire.Request{Op: wire.OpPing}); return err }, 1},
		{"getAt", func(cn *Conn) error { _, _, err := cn.getAt(1, 0); return err }, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			nc, peer := net.Pipe()
			defer peer.Close()
			cn := newConn(brokenWrites{nc}, 0)
			defer cn.Close()
			if err := c.issue(cn); !errors.Is(err, ErrConnClosed) {
				t.Fatalf("err = %v, want ErrConnClosed", err)
			}
			if n := freeCalls(cn); n != c.calls {
				t.Fatalf("free list holds %d calls, want %d", n, c.calls)
			}
			for i, call := range cn.ring {
				if call != nil {
					t.Fatalf("slot %d still holds call %d", i, call.id)
				}
			}
		})
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
