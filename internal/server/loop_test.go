package server

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/skiphash"
)

// The connection loop's contract, driven through the real startConn over
// net.Pipe: a pipe hands the server exactly the bytes of one Write per
// read, so which frames share a read — and therefore a cycle — is
// decided by the test and visible in skiphash_server_run_size.

// pipeConn is the client end of a served in-memory connection.
type pipeConn struct {
	t   *testing.T
	nc  net.Conn
	fr  *wire.FrameReader
	srv *Server
}

// servePipe serves be (nil: a fresh map) on one end of a pipe
// and returns the other.
func servePipe(t *testing.T, be Backend, cfg Config) *pipeConn {
	t.Helper()
	if be == nil {
		m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
		t.Cleanup(func() { m.Close() })
		be = NewShardedBackend(m)
	}
	cfg.Obs = obs.NewRegistry()
	srv := New(be, cfg)
	client, served := net.Pipe()
	srv.startConn(served)
	t.Cleanup(func() {
		client.Close()
		srv.connWG.Wait()
	})
	client.SetDeadline(time.Now().Add(10 * time.Second))
	return &pipeConn{t: t, nc: client, fr: wire.NewFrameReader(client, wire.MaxResponsePayload), srv: srv}
}

// send writes each chunk with its own Write, pausing before every chunk
// after the first. It runs beside the test: a pipe's Write returns only
// once the server has taken the bytes, which it may not do before the
// test reads an earlier response.
func (p *pipeConn) send(pause time.Duration, chunks ...[]byte) {
	go func() {
		for i, chunk := range chunks {
			if i > 0 {
				time.Sleep(pause)
			}
			if _, err := p.nc.Write(chunk); err != nil {
				return // the test's reads report what the server did
			}
		}
	}()
}

// expect reads one response and checks it answers request id with
// StatusOK.
func (p *pipeConn) expect(id uint64) wire.Response {
	p.t.Helper()
	payload, err := p.fr.Next()
	if err != nil {
		p.t.Fatalf("response to request %d: %v", id, err)
	}
	resp, err := wire.ParseResponse(payload)
	if err != nil {
		p.t.Fatalf("response to request %d: %v", id, err)
	}
	if resp.ID != id || resp.Status != wire.StatusOK {
		p.t.Fatalf("got response id %d status %v (%s), want id %d OK", resp.ID, resp.Status, resp.Msg, id)
	}
	return resp
}

// wantRuns checks the coalesced runs executed so far and the requests
// they absorbed.
func (p *pipeConn) wantRuns(runs, reqs uint64) {
	p.t.Helper()
	h := p.srv.met.runSize
	if h.Count() != runs || h.Sum() != reqs {
		p.t.Fatalf("%d runs absorbing %d requests, want %d absorbing %d", h.Count(), h.Sum(), runs, reqs)
	}
}

func putFrame(id uint64, k int64) []byte {
	return wire.AppendRequest(nil, &wire.Request{ID: id, Op: wire.OpPut, Key: k, Val: k})
}

func TestBurstInOneWriteIsOneCycle(t *testing.T) {
	p := servePipe(t, nil, Config{})
	const n = 40 // <= maxBatch
	var stream []byte
	for i := uint64(1); i <= n; i++ {
		stream = append(stream, putFrame(i, int64(i))...)
	}
	p.send(0, stream)
	for i := uint64(1); i <= n; i++ {
		p.expect(i)
	}
	p.wantRuns(1, n)
}

func TestFrameSplitAcrossWrites(t *testing.T) {
	p := servePipe(t, nil, Config{})
	a, b, c := putFrame(1, 1), putFrame(2, 2), putFrame(3, 3)
	half := len(b) / 2
	first := append(append([]byte{}, a...), b[:half]...)
	second := append(append([]byte{}, b[half:]...), c...)
	p.send(30*time.Millisecond, first, second)
	p.expect(1)
	// The partial frame was not Ready: the first cycle is request 1 alone.
	p.wantRuns(1, 1)
	p.expect(2)
	p.expect(3)
	p.wantRuns(2, 3)
	// Nothing is answered twice.
	p.nc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	var ne net.Error
	if _, err := p.fr.Next(); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("after three responses: %v, want only a read timeout", err)
	}
}

func TestFrameLargerThanReadBuffer(t *testing.T) {
	p := servePipe(t, nil, Config{})
	// The largest batch there is: 17 bytes per insert step, ~544 KiB of
	// payload against a 64 KiB read buffer and a 1 MiB frame limit.
	steps := make([]wire.Step, wire.MaxBatchSteps)
	for i := range steps {
		steps[i] = wire.Step{Kind: wire.StepInsert, Key: int64(i + 10), Val: 1}
	}
	big := wire.AppendRequest(nil, &wire.Request{ID: 2, Op: wire.OpBatch, Steps: steps})
	p.send(0, append(putFrame(1, 1), big...))
	p.expect(1)
	resp := p.expect(2)
	if len(resp.Steps) != len(steps) {
		t.Fatalf("batch answered %d steps, want %d", len(resp.Steps), len(steps))
	}
	for i, s := range resp.Steps {
		if !s.Ok {
			t.Fatalf("batch step %d not applied", i)
		}
	}
	// Had the batch shared the Put's cycle the two would have coalesced
	// into one run of 2; a frame the buffer cannot hold whole is never
	// Ready, so it waits for the next blocking read.
	p.wantRuns(2, 2)
}

func TestGoodFramesBeforeCorruptOneAreAnswered(t *testing.T) {
	p := servePipe(t, nil, Config{})
	const n = 5
	var stream []byte
	for i := uint64(1); i <= n; i++ {
		stream = append(stream, putFrame(i, int64(i))...)
	}
	bad := putFrame(n+1, n+1)
	bad[len(bad)-1] ^= 0xff
	p.send(0, append(stream, bad...))
	for i := uint64(1); i <= n; i++ {
		p.expect(i)
	}
	if _, err := p.fr.Next(); err != io.EOF {
		t.Fatalf("after a corrupt frame: %v, want the connection closed", err)
	}
}

// slowGets delays every point read.
type slowGets struct {
	Backend
	d time.Duration
}

func (b slowGets) Get(req *wire.Request, resp *wire.Response) {
	time.Sleep(b.d)
	b.Backend.Get(req, resp)
}

func TestIdleClockStopsWhileExecuting(t *testing.T) {
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	defer m.Close()
	const idle = 50 * time.Millisecond
	p := servePipe(t, slowGets{NewShardedBackend(m), 3 * idle}, Config{IdleTimeout: idle})
	p.send(0, wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpGet, Key: 1}))
	p.expect(1)
	// The request ran for three idle timeouts; the connection is still
	// served.
	p.send(0, wire.AppendRequest(nil, &wire.Request{ID: 2, Op: wire.OpPing}))
	p.expect(2)
}

func TestOneGoroutinePerConnection(t *testing.T) {
	_, srv, addr := startServer(t, skiphash.Config{}, Config{})
	const conns = 64
	before := runtime.NumGoroutine()
	for i := 0; i < conns; i++ {
		rawDial(t, addr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.NumConns() < conns {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d connections admitted", srv.NumConns(), conns)
		}
		time.Sleep(time.Millisecond)
	}
	// About one each, not two: the slack absorbs goroutines of earlier
	// tests still winding down.
	if grew := runtime.NumGoroutine() - before; grew < conns-conns/4 || grew >= conns+conns/2 {
		t.Fatalf("%d idle connections added %d goroutines, want about %d", conns, grew, conns)
	}
}

// TestShutdownReportsEngineFailure stops a durable namespace's engine
// behind the map's back and then writes to it, so an acknowledged commit
// never reached the log: Shutdown (through CloseAll) must say so.
func TestShutdownReportsEngineFailure(t *testing.T) {
	def := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	defer def.Close()
	reg, err := NewRegistry(RegistryConfig{
		Root:       t.TempDir(),
		Map:        skiphash.Config{},
		Durability: skiphash.Durability{Fsync: skiphash.FsyncNone},
	})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	if _, err := reg.Create("healthy", true, wire.NsFsyncDefault); err != nil {
		t.Fatalf("Create: %v", err)
	}
	ns, err := reg.Create("failing", true, wire.NsFsyncDefault)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	m := ns.be.(*MapBackend[string, string]).Map
	m.Persister().Close()
	m.Insert("k", "v")
	err = NewWithRegistry(NewShardedBackend(def), reg, Config{}).Shutdown(context.Background())
	if err == nil || !strings.Contains(err.Error(), "not logged") {
		t.Fatalf("Shutdown = %v after a commit no engine logged", err)
	}
}
