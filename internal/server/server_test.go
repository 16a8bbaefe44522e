package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/skiphash"
	"repro/skiphash/client"
)

// startServer serves a fresh map on a loopback TCP listener and
// returns the address plus a cleanup tearing everything down.
func startServer(t *testing.T, mapCfg skiphash.Config, srvCfg Config) (*skiphash.Map[int64, int64], *Server, string) {
	t.Helper()
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, mapCfg)
	srv := New(NewShardedBackend(m), srvCfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
		m.Close()
	})
	return m, srv, ln.Addr().String()
}

func dialT(t *testing.T, addr string, opts client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, opts)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServeBasicOps(t *testing.T) {
	_, _, addr := startServer(t, skiphash.Config{}, Config{})
	c := dialT(t, addr, client.Options{Conns: 2})

	if ok, err := c.Insert(1, 10); err != nil || !ok {
		t.Fatalf("Insert(1) = %v, %v", ok, err)
	}
	if ok, err := c.Insert(1, 11); err != nil || ok {
		t.Fatalf("duplicate Insert(1) = %v, %v", ok, err)
	}
	if v, ok, err := c.Get(1); err != nil || !ok || v != 10 {
		t.Fatalf("Get(1) = %d, %v, %v", v, ok, err)
	}
	if replaced, err := c.Put(1, 12); err != nil || !replaced {
		t.Fatalf("Put(1) = %v, %v", replaced, err)
	}
	if v, ok, err := c.Get(1); err != nil || !ok || v != 12 {
		t.Fatalf("Get(1) after Put = %d, %v, %v", v, ok, err)
	}
	for k := int64(2); k <= 9; k++ {
		if _, err := c.Insert(k, k*10); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	pairs, err := c.Range(0, 100, 0)
	if err != nil || len(pairs) != 9 {
		t.Fatalf("Range = %v (%d pairs), %v", pairs, len(pairs), err)
	}
	for i, p := range pairs {
		if p.Key != int64(i+1) {
			t.Fatalf("range pair %d out of order: %+v", i, p)
		}
	}
	if pairs, err = c.Range(0, 100, 3); err != nil || len(pairs) != 3 {
		t.Fatalf("bounded Range = %d pairs, %v", len(pairs), err)
	}
	if ok, err := c.Remove(5); err != nil || !ok {
		t.Fatalf("Remove(5) = %v, %v", ok, err)
	}
	if _, ok, err := c.Get(5); err != nil || ok {
		t.Fatalf("Get(5) after Remove = %v, %v", ok, err)
	}
	results, err := c.Atomic([]client.Step{
		{Kind: client.StepInsert, Key: 100, Val: 1000},
		{Kind: client.StepRemove, Key: 2},
		{Kind: client.StepLookup, Key: 3},
	})
	if err != nil || len(results) != 3 {
		t.Fatalf("Atomic = %v, %v", results, err)
	}
	if !results[0].Ok || !results[1].Ok || !results[2].Ok || results[2].Out != 30 {
		t.Fatalf("Atomic results = %+v", results)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := c.Sync(); !errors.Is(err, client.ErrNotDurable) {
		t.Fatalf("Sync on non-durable server = %v, want ErrNotDurable", err)
	}
	if err := c.Snapshot(); !errors.Is(err, client.ErrNotDurable) {
		t.Fatalf("Snapshot on non-durable server = %v, want ErrNotDurable", err)
	}
}

func TestServeUnixSocket(t *testing.T) {
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	defer m.Close()
	srv := New(NewShardedBackend(m), Config{})
	path := t.TempDir() + "/skiphashd.sock"
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatalf("listen unix: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	c := dialT(t, path, client.Options{})
	if ok, err := c.Insert(7, 70); err != nil || !ok {
		t.Fatalf("Insert over unix = %v, %v", ok, err)
	}
	if v, ok, err := c.Get(7); err != nil || !ok || v != 70 {
		t.Fatalf("Get over unix = %d, %v, %v", v, ok, err)
	}
}

// rawDial opens a bare TCP connection for protocol-violation tests.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// expectClosed asserts the server closes the connection (EOF or reset)
// without the client having to send anything more.
func expectClosed(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		_, err := nc.Read(buf)
		if err == nil {
			continue // drain whatever was in flight
		}
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || isReset(err) {
			return
		}
		t.Fatalf("connection not closed by server: %v", err)
	}
}

func isReset(err error) bool {
	var ne *net.OpError
	return errors.As(err, &ne)
}

func TestMalformedFrameTearsConnectionDown(t *testing.T) {
	_, _, addr := startServer(t, skiphash.Config{}, Config{})

	t.Run("BadChecksum", func(t *testing.T) {
		nc := rawDial(t, addr)
		frame := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpGet, Key: 1})
		frame[len(frame)-1] ^= 0xff
		nc.Write(frame)
		expectClosed(t, nc)
	})

	t.Run("OversizedFrame", func(t *testing.T) {
		nc := rawDial(t, addr)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:4], wire.MaxRequestPayload+1)
		nc.Write(hdr[:])
		expectClosed(t, nc)
	})

	t.Run("UnknownOp", func(t *testing.T) {
		nc := rawDial(t, addr)
		frame := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpPing})
		// Rewrite the op byte and fix the checksum so only parsing fails.
		payload := frame[8:]
		payload[8] = 0xEE
		binary.LittleEndian.PutUint32(frame[4:8], crc32Of(payload))
		nc.Write(frame)
		expectClosed(t, nc)
	})

	// The retired RESIZE (29) and RESIZE2 (30) codes are unknown ops now:
	// a well-formed frame carrying one, with its old body, fares the same.
	t.Run("RetiredResizeOp", func(t *testing.T) {
		for _, body := range [][]byte{
			binary.LittleEndian.AppendUint64([]byte{29}, 4),
			binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32([]byte{30}, 1), 4),
		} {
			nc := rawDial(t, addr)
			payload := append(binary.LittleEndian.AppendUint64(nil, 1), body...)
			frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
			frame = binary.LittleEndian.AppendUint32(frame, crc32Of(payload))
			nc.Write(append(frame, payload...))
			expectClosed(t, nc)
		}
	})

	t.Run("TruncatedFrameThenDisconnect", func(t *testing.T) {
		// A client dying mid-frame must not wedge or kill the server.
		nc := rawDial(t, addr)
		frame := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpInsert, Key: 1, Val: 2})
		nc.Write(frame[:len(frame)-3])
		nc.Close()
	})

	// The server must still serve new connections afterwards.
	c := dialT(t, addr, client.Options{})
	if err := c.Ping(); err != nil {
		t.Fatalf("server unusable after protocol violations: %v", err)
	}
}

// crc32Of mirrors the wire checksum for hand-built test frames.
func crc32Of(payload []byte) uint32 {
	return crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
}

func TestMidRequestDisconnectDuringPipelining(t *testing.T) {
	m, _, addr := startServer(t, skiphash.Config{}, Config{})
	nc := rawDial(t, addr)
	// Pipeline a burst of inserts, then die mid-frame on the last one.
	var stream []byte
	for i := int64(1); i <= 50; i++ {
		stream = wire.AppendRequest(stream, &wire.Request{ID: uint64(i), Op: wire.OpInsert, Key: i, Val: i})
	}
	last := wire.AppendRequest(nil, &wire.Request{ID: 51, Op: wire.OpInsert, Key: 51, Val: 51})
	stream = append(stream, last[:len(last)-5]...)
	nc.Write(stream)
	nc.Close()
	// The complete requests must have executed; the torn one must not
	// have. Poll: execution is asynchronous with the disconnect.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := m.Lookup(50); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pipelined requests before the disconnect were not executed")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := m.Lookup(51); ok {
		t.Fatal("torn trailing request executed")
	}
}

func TestConnectionLimitRejection(t *testing.T) {
	_, srv, addr := startServer(t, skiphash.Config{}, Config{MaxConns: 2})

	c1 := dialT(t, addr, client.Options{})
	c2 := dialT(t, addr, client.Options{})
	if err := c1.Ping(); err != nil {
		t.Fatalf("conn 1: %v", err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatalf("conn 2: %v", err)
	}
	// The third connection must be refused with StatusBusy.
	c3, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial 3: %v", err)
	}
	defer c3.Close()
	if err := c3.Ping(); !errors.Is(err, client.ErrServerBusy) {
		t.Fatalf("over-limit ping = %v, want ErrServerBusy", err)
	}
	// Closing one admitted connection frees a slot (poll: deregistration
	// is asynchronous with the close).
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c4, err := client.Dial(addr, client.Options{})
		if err == nil {
			err = c4.Ping()
			c4.Close()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot not freed after close: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.NumConns(); n > 2 {
		t.Fatalf("NumConns = %d, want <= 2", n)
	}
}

func TestPipelinedBatchAtomicityUnderConcurrentWriters(t *testing.T) {
	m, _, addr := startServer(t, skiphash.Config{}, Config{MaxBatch: 32})

	// Writers pipeline atomic batches that keep k and k+1000 equal;
	// concurrently, in-process readers assert they never observe a
	// half-applied batch. Batches ride the same coalescer as the
	// surrounding pipelined point ops.
	const (
		writers = 4
		keys    = 32
		rounds  = 100
	)
	var stop atomic.Bool
	var violations atomic.Int64
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for !stop.Load() {
				_ = m.Atomic(func(op *skiphash.Txn[int64, int64]) error {
					for k := int64(0); k < keys; k++ {
						v1, ok1 := op.Lookup(k)
						v2, ok2 := op.Lookup(k + 1000)
						if ok1 != ok2 || (ok1 && v1 != v2) {
							violations.Add(1)
						}
					}
					return nil
				})
				// Yield between audits: on a single-P runtime a spinning
				// transaction loop would starve the server goroutines for
				// whole preemption quanta.
				runtime.Gosched()
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			defer c.Close()
			cn := c.Conn(0)
			for i := 0; i < rounds; i++ {
				k := int64((w*rounds + i) % keys)
				v := int64(w)<<32 | int64(i)
				// Pipeline noise around the batch so coalescing happens.
				calls := make([]*client.Call, 0, 4)
				if call, err := cn.Start(&wire.Request{Op: wire.OpGet, Key: k}); err == nil {
					calls = append(calls, call)
				}
				if call, err := cn.Start(&wire.Request{Op: wire.OpBatch, Steps: []wire.Step{
					{Kind: wire.StepRemove, Key: k},
					{Kind: wire.StepRemove, Key: k + 1000},
					{Kind: wire.StepInsert, Key: k, Val: v},
					{Kind: wire.StepInsert, Key: k + 1000, Val: v},
				}}); err == nil {
					calls = append(calls, call)
				}
				if call, err := cn.Start(&wire.Request{Op: wire.OpGet, Key: k + 1000}); err == nil {
					calls = append(calls, call)
				}
				if err := cn.Flush(); err != nil {
					t.Errorf("writer %d flush: %v", w, err)
					return
				}
				for _, call := range calls {
					if _, err := call.Wait(); err != nil {
						t.Errorf("writer %d wait: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
	if n := violations.Load(); n > 0 {
		t.Fatalf("%d atomicity violations observed", n)
	}
}

func TestGracefulDrainCompletesInflightRequests(t *testing.T) {
	for round := 0; round < 5; round++ {
		m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
		srv := New(NewShardedBackend(m), Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go srv.Serve(ln)

		c, err := client.Dial(ln.Addr().String(), client.Options{})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		cn := c.Conn(0)
		// A round trip first: Dial returns once the kernel has the
		// connection, which may be before the server admits it, and a
		// connection admitted after Shutdown began is refused, not drained.
		if err := c.Ping(); err != nil {
			t.Fatalf("ping: %v", err)
		}
		// Pipeline a burst, then race Shutdown against it.
		const n = 400
		calls := make([]*client.Call, 0, n)
		for i := int64(0); i < n; i++ {
			call, err := cn.Start(&wire.Request{Op: wire.OpInsert, Key: i, Val: i})
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			calls = append(calls, call)
		}
		if err := cn.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = srv.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: shutdown: %v", round, err)
		}
		// Every request the server accepted must have been answered; an
		// unanswered tail is only legal if the conn died, which Wait
		// surfaces as ErrConnClosed. What cannot happen: an acknowledged
		// insert missing from the map, or a map entry nobody acknowledged
		// ... the drain answered everything it executed.
		acked := 0
		for i, call := range calls {
			resp, werr := call.Wait()
			if werr != nil {
				if errors.Is(werr, client.ErrConnClosed) {
					continue
				}
				t.Fatalf("round %d: call %d: %v", round, i, werr)
			}
			if !resp.Ok {
				t.Fatalf("round %d: insert %d not ok", round, i)
			}
			acked++
			if _, ok := m.Lookup(int64(i)); !ok {
				t.Fatalf("round %d: acknowledged insert %d missing after drain", round, i)
			}
		}
		// The flush returned before Shutdown began, so the server's
		// reader had the whole burst available: a graceful drain should
		// answer all of it in practice. Tolerate nothing less than full
		// completion when the connection survived.
		if acked != n && !errors.Is(cnErr(cn), client.ErrConnClosed) {
			t.Fatalf("round %d: only %d/%d pipelined requests answered by graceful drain", round, acked, n)
		}
		c.Close()
		m.Close()
	}
}

// cnErr peeks at the connection's sticky error through a probe call.
func cnErr(cn *client.Conn) error {
	_, err := cn.Do(&wire.Request{Op: wire.OpGet})
	return err
}

func TestShutdownRefusesNewConnections(t *testing.T) {
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	defer m.Close()
	srv := New(NewShardedBackend(m), Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Serve closes the listener whether it started before Shutdown or
	// after; until it has, the kernel still completes connects into the
	// listen backlog.
	<-served
	if _, err := client.Dial(ln.Addr().String(), client.Options{}); err == nil {
		t.Fatal("dial after shutdown succeeded")
	}
}

func TestIdleTimeout(t *testing.T) {
	_, srv, addr := startServer(t, skiphash.Config{},
		Config{IdleTimeout: 50 * time.Millisecond})
	c := dialT(t, addr, client.Options{})
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.NumConns() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection not reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("ping on reaped connection succeeded")
	}
}

// TestServeOneShardBackend serves the map skiphash.New builds (the
// name is from when that was the one-shard case).
func TestServeOneShardBackend(t *testing.T) {
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	defer m.Close()
	srv := New(NewShardedBackend(m), Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	c := dialT(t, ln.Addr().String(), client.Options{})
	if ok, err := c.Insert(3, 33); err != nil || !ok {
		t.Fatalf("Insert = %v, %v", ok, err)
	}
	results, err := c.Atomic([]client.Step{
		{Kind: client.StepLookup, Key: 3},
		{Kind: client.StepInsert, Key: 4, Val: 44},
	})
	if err != nil || !results[0].Ok || results[0].Out != 33 || !results[1].Ok {
		t.Fatalf("Atomic = %+v, %v", results, err)
	}
}

func TestDurableServedMap(t *testing.T) {
	dir := t.TempDir()
	open := func() *skiphash.Map[int64, int64] {
		m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{
			Durability: &skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncNone},
		}, skiphash.Int64Codec(), skiphash.Int64Codec())
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return m
	}
	m := open()
	srv := New(NewShardedBackend(m), Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for k := int64(0); k < 100; k++ {
		if _, err := c.Insert(k, k*3); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("Sync over the wire: %v", err)
	}
	if err := c.Snapshot(); err != nil {
		t.Fatalf("Snapshot over the wire: %v", err)
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	srv.Shutdown(ctx)
	cancel()
	m.Close()

	m2 := open()
	defer m2.Close()
	for k := int64(0); k < 100; k++ {
		if v, ok := m2.Lookup(k); !ok || v != k*3 {
			t.Fatalf("recovered Lookup(%d) = %d, %v", k, v, ok)
		}
	}
}

func TestBusyFrameFormat(t *testing.T) {
	// The refusal frame must parse as a StatusBusy response with id 0.
	_, _, addr := startServer(t, skiphash.Config{}, Config{MaxConns: 1})
	hold := dialT(t, addr, client.Options{})
	if err := hold.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	nc := rawDial(t, addr)
	fr := wire.NewFrameReader(nc, wire.MaxResponsePayload)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := fr.Next()
	if err != nil {
		t.Fatalf("read refusal frame: %v", err)
	}
	resp, err := wire.ParseResponse(payload)
	if err != nil {
		t.Fatalf("parse refusal frame: %v", err)
	}
	if resp.ID != 0 || resp.Status != wire.StatusBusy {
		t.Fatalf("refusal frame = %+v", resp)
	}
	expectClosed(t, nc)
}

func TestManyConnsConcurrent(t *testing.T) {
	m, _, addr := startServer(t, skiphash.Config{}, Config{})
	const conns = 8
	const opsPer = 300
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := int64(0); j < opsPer; j++ {
				k := base*opsPer + j
				if _, err := c.Insert(k, k); err != nil {
					errs <- fmt.Errorf("insert %d: %w", k, err)
					return
				}
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := m.SizeSlow(); got != conns*opsPer {
		t.Fatalf("map size = %d, want %d", got, conns*opsPer)
	}
}
