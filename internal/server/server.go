// Package server is the skip hash's network front end: it speaks the
// internal/wire protocol over TCP or unix sockets and executes requests
// against embedded maps (durable or not).
//
// # Namespaces, one executor
//
// A server hosts numbered namespaces, each a map behind a Backend.
// Namespace 0, "default", is the int64 map the server was built around:
// always present, never dropped, addressed by the wire's v1 fixed-width
// ops. A Registry adds named byte-string namespaces, created and dropped
// at run time and addressed by id through the v2 ops. The two op
// families differ only in which request fields carry the key, so there
// is one executor (exec.go) working on op kinds — get, insert, batch,
// range — and one Backend implementation, MapBackend, generic over
// the map's key and value types; a small codec per family reads keys out
// of requests and writes results into responses. Everything else —
// resolving the namespace, its run lock and quotas, coalescing, metrics
// and trace annotations — treats namespace 0 like any other.
//
// # Pipelining and batching
//
// Each connection is one goroutine running one loop. It blocks reading
// a request frame, takes every further frame that read left whole in
// its buffer (up to MaxBatch) without touching the socket again,
// coalesces runs of point operations (and client batches) into single
// Atomic transactions, writes the responses back in request order,
// flushes once, and goes back to reading. A client that pipelines N
// requests therefore pays ~one syscall and ~one STM transaction per
// batch instead of per operation — the access-boundary batching that
// serving-scale throughput lives or dies on. Clients that send one
// request at a time (closed loop) see ordinary request/response
// behavior; batching is purely opportunistic and adds no latency when
// nothing else has arrived. There is no user-space request queue:
// requests the loop has not read yet wait in the kernel's socket
// buffer, and a client that outruns the server stalls on its writes.
//
// A run never leaves its namespace: it ends where the next request
// addresses another one, and a namespace's coalescing quota can clamp it
// further.
//
// Reads are segregated from writes: a coalesced run consisting purely
// of Gets skips the atomic-txn machinery and is answered through the
// backend's direct read path (the map's optimistic non-transactional
// fast path), and while one run executes the drain loop issues index
// prefetches for the next run's keys, overlapping its descent with the
// current run's work.
//
// Coalescing preserves each request's semantics. Every operation in a
// coalesced transaction takes effect at the transaction's single
// commit point, which lies after all of the operations' invocations
// (their frames had been read) and before any of their responses — a
// valid linearization point for each of them, verified end to end by
// skipstress -net.
//
// # Lifecycle
//
// Shutdown drains gracefully: listeners close, every connection's next
// blocking read is made to fail, and each loop first answers the frames
// it has already read — the cycle in flight, and whatever whole frames
// sit in its read buffer — and flushes them; frames still in the
// kernel's socket buffer are not answered. Then the registry's
// namespaces are closed (a durable one's flush or engine failure is
// Shutdown's error) — wiring the network front end into the map's
// existing Close lifecycle.
// Connections still open when the context expires are force-closed.
//
// The idle timeout runs only while a loop waits for input: it is armed
// in front of the blocking read and nowhere else, so a request that
// executes for longer than the timeout does not cost its connection.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/skiphash"
)

// Config tunes the server. The zero value serves with the defaults.
type Config struct {
	// MaxConns bounds concurrently served connections; further accepts
	// receive a StatusBusy frame and are closed. Default 256.
	MaxConns int
	// MaxBatch bounds how many pipelined requests one Atomic
	// transaction may coalesce. Default 64.
	MaxBatch int
	// WriteTimeout is the slow-client deadline: a drain cycle's
	// response writes must complete within it or the connection is torn
	// down. Default 10s; negative disables.
	WriteTimeout time.Duration
	// IdleTimeout closes connections that send nothing for this long
	// while the server waits for their next request. 0 disables.
	IdleTimeout time.Duration
	// Logf, when set, receives per-connection diagnostics (protocol
	// violations, write failures). Default: silent.
	Logf func(format string, args ...any)
	// Obs, when set, registers the server's metrics (request latency,
	// coalesced-run size, busy refusals) and serves the
	// registry's rendered exposition through wire.OpStats. Metrics are
	// additive: nothing is registered on the data path's shared-write
	// side, and with Obs unset the per-request cost is a nil check.
	Obs *obs.Registry
	// Tracer, when set (and armed via its threshold), captures slow
	// requests into its ring: op, namespace, key hash, execution path,
	// duration, and the STM abort delta over the request's batch.
	Tracer *obs.Tracer
	// AbortsFn, when set alongside Tracer, reports the process-wide STM
	// abort count; trace entries carry the delta observed across their
	// drain cycle as an attribution hint.
	AbortsFn func() uint64
}

func (c Config) withDefaults() Config {
	if c.MaxConns == 0 {
		c.MaxConns = 256
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	return c
}

// Server serves namespaces over any number of listeners: namespace 0,
// the map it was built around, and — with a Registry attached — the
// named namespaces the registry owns.
type Server struct {
	def *namespace // namespace 0, "default"; never dropped
	reg *Registry
	cfg Config
	met *metrics // nil without Config.Obs

	mu       sync.Mutex
	lns      map[net.Listener]struct{}
	conns    map[*conn]struct{}
	draining atomic.Bool
	connWG   sync.WaitGroup
}

// New creates a server whose namespace 0 is be. Without a registry that
// is the only namespace (requests naming another answer
// StatusNsNotFound, NsCreate StatusErr). The caller keeps ownership of
// be's map: Shutdown quiesces it but does not close it.
func New(be Backend, cfg Config) *Server {
	s := &Server{
		cfg:   cfg.withDefaults(),
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[*conn]struct{}),
	}
	s.def = newNamespace(0, "default", "", be, s.cfg.Obs)
	if s.cfg.Obs != nil {
		s.met = newMetrics(s, s.cfg.Obs)
	}
	return s
}

// NewWithRegistry creates a multi-namespace server: be is namespace 0,
// reg owns the named namespaces. The server takes ownership of the
// registry's backends — Shutdown closes them.
func NewWithRegistry(be Backend, reg *Registry, cfg Config) *Server {
	s := New(be, cfg)
	s.reg = reg
	return s
}

// Registry exposes the attached namespace registry (nil without one).
func (s *Server) Registry() *Registry { return s.reg }

// errServerClosed distinguishes a drain-initiated accept failure.
var errServerClosed = errors.New("server: shut down")

// Serve accepts connections on ln until the listener fails or the
// server shuts down (then it returns nil). Multiple Serve calls on
// different listeners may run concurrently (TCP + unix socket).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return errServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
		ln.Close()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.startConn(nc)
	}
}

// startConn admits or rejects one accepted connection.
func (s *Server) startConn(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		// Responses are flushed once per drain cycle — already batched —
		// so Nagle only adds delayed-ACK stalls to the request/response
		// rhythm.
		tc.SetNoDelay(true)
	}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		s.refuse(nc, wire.StatusShuttingDown, "server is shutting down")
		return
	}
	if len(s.conns) >= s.cfg.MaxConns {
		s.mu.Unlock()
		if s.met != nil {
			s.met.busyConns.Inc()
		}
		s.refuse(nc, wire.StatusBusy, fmt.Sprintf("connection limit %d reached", s.cfg.MaxConns))
		return
	}
	c := s.newConn(nc)
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	s.mu.Unlock()
	go c.serve()
}

// newConn builds the serving state for one connection.
func (s *Server) newConn(nc net.Conn) *conn {
	c := &conn{
		srv:   s,
		nc:    nc,
		bw:    bufio.NewWriterSize(nc, 64<<10),
		resps: make([]wire.Response, s.cfg.MaxBatch),
		track: s.met != nil || s.cfg.Tracer != nil,
	}
	if c.track {
		c.paths = make([]uint8, s.cfg.MaxBatch)
		c.nsAt = make([]*namespace, s.cfg.MaxBatch)
	}
	return c
}

// refuse writes one terminal status frame (best effort, under a short
// deadline) and closes the connection.
func (s *Server) refuse(nc net.Conn, status wire.Status, msg string) {
	nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
	frame := wire.AppendResponse(nil, &wire.Response{Op: wire.OpPing, Status: status, Msg: msg})
	nc.Write(frame)
	nc.Close()
}

// NumConns reports the connections currently being served.
func (s *Server) NumConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Shutdown drains the server: listeners stop accepting, every
// connection answers the frames it has already read and flushes them,
// the backend's removal buffers are quiesced, and the registry's
// namespaces are closed. Connections still open when ctx expires are
// force-closed (their unflushed responses are lost, as a crash would
// lose them). Shutdown returns the first failure closing a namespace —
// acknowledged writes that may not be on disk — else the context's
// error if connections had to be force-closed; it is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	for ln := range s.lns {
		ln.Close()
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.startDrain()
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	if s.reg != nil {
		if cerr := s.reg.CloseAll(); cerr != nil {
			err = cerr
		}
	}
	return err
}

// conn is one served connection.
type conn struct {
	srv *Server
	nc  net.Conn
	bw  *bufio.Writer

	// Cycle scratch, reused across cycles: the requests read for this
	// cycle, one response slot per request of an atomic run (results are
	// encoded only after the commit), one for everything answered as it
	// executes, and whatever the backend last kept for collecting ranges.
	batch   []wire.Request
	resps   []wire.Response
	one     wire.Response
	scratch any
	enc     []byte

	// Observability scratch (see metrics.go), allocated once when track
	// is set: when the cycle's blocking read returned — the arrival of
	// every request in it — and per-request execution-path markers and
	// namespace annotations, indexed by batch position.
	track        bool
	arrival      time.Time
	paths        []uint8
	nsAt         []*namespace
	abortsBefore uint64

	// attached caches which connection-limited namespaces this
	// connection has been admitted to, so the quota check is a
	// conn-local map hit after the first request.
	attached map[*namespace]struct{}

	drained atomic.Bool
}

func (c *conn) logf(format string, args ...any) {
	if c.srv.cfg.Logf != nil {
		c.srv.cfg.Logf(format, args...)
	}
}

// startDrain fails the loop's next blocking read; frames it has already
// read, executing or whole in its buffer, are still answered.
func (c *conn) startDrain() {
	c.drained.Store(true)
	c.nc.SetReadDeadline(time.Unix(1, 0))
}

// serve is the connection's one loop: read a cycle's requests, execute
// them, write the responses in request order, flush once. Any read or
// decode failure ends the stream — after a framing violation there is
// no next frame boundary — but the requests read before it are still
// answered.
func (c *conn) serve() {
	defer c.srv.connWG.Done()
	defer c.teardown()
	fr := wire.NewFrameReader(bufio.NewReaderSize(c.nc, 64<<10), wire.MaxRequestPayload)
	for {
		if t := c.srv.cfg.IdleTimeout; t > 0 && !c.drained.Load() {
			c.nc.SetReadDeadline(time.Now().Add(t))
			// startDrain may have set its expired deadline between the
			// check and the set above; re-checking after the set means
			// one side always observes the other, so the drain deadline
			// cannot be lost under an idle re-arm.
			if c.drained.Load() {
				c.nc.SetReadDeadline(time.Unix(1, 0))
			}
		}
		rerr := c.readCycle(fr)
		if len(c.batch) > 0 {
			// Arm the slow-client deadline for the whole cycle up front:
			// a response larger than the bufio buffer spills to the
			// socket during encoding, and that write must not run under
			// a stale deadline from a previous cycle (spurious timeout)
			// or no deadline at all (a slow reader could park the loop
			// indefinitely).
			if t := c.srv.cfg.WriteTimeout; t > 0 {
				c.nc.SetWriteDeadline(time.Now().Add(t))
			}
			if tr := c.srv.cfg.Tracer; tr != nil && tr.Enabled() && c.srv.cfg.AbortsFn != nil {
				c.abortsBefore = c.srv.cfg.AbortsFn()
			}
			c.execute(c.batch)
			if err := c.flush(); err != nil {
				c.logf("server: %s: write: %v", c.nc.RemoteAddr(), err)
				return
			}
			if c.track {
				c.observe(c.batch)
			}
		}
		if rerr != nil {
			if rerr != io.EOF && !c.drained.Load() {
				c.logf("server: %s: read: %v", c.nc.RemoteAddr(), rerr)
			}
			return
		}
	}
}

// readCycle fills c.batch: it blocks for one request frame, then takes
// the frames that read left whole in the buffer, up to MaxBatch, without
// reading the socket again — the kernel's socket buffer is the queue. An
// error comes with the requests read before it.
func (c *conn) readCycle(fr *wire.FrameReader) error {
	c.batch = c.batch[:0]
	for {
		payload, err := fr.Next()
		if err != nil {
			return err
		}
		if c.track && len(c.batch) == 0 {
			c.arrival = time.Now()
		}
		req, err := wire.ParseRequest(payload)
		if err != nil {
			return err
		}
		c.push(req)
		if len(c.batch) == c.srv.cfg.MaxBatch || !fr.Ready() {
			return nil
		}
	}
}

// push appends one request to the cycle's batch, keeping the
// annotations aligned by position. A request is accounted to namespace 0
// until a run claims it for the namespace it resolves to, which leaves
// the server's own ops (Ping, Stats, admin) there.
func (c *conn) push(req wire.Request) {
	c.batch = append(c.batch, req)
	if c.track {
		i := len(c.batch) - 1
		c.paths[i] = pathStandalone
		c.nsAt[i] = c.srv.def
	}
}

// teardown closes the connection and releases its quota slots.
func (c *conn) teardown() {
	c.nc.Close()
	for ns := range c.attached {
		ns.detach(c)
	}
	s := c.srv
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// encodeResponse appends one response frame to the buffered writer.
func (c *conn) encodeResponse(resp *wire.Response) {
	c.enc = c.enc[:0]
	c.enc = wire.AppendResponse(c.enc, resp)
	c.bw.Write(c.enc) // bufio keeps the first error; flush reports it
}

// flush pushes the cycle's responses to the client under the
// slow-client deadline.
func (c *conn) flush() error {
	if t := c.srv.cfg.WriteTimeout; t > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(t))
	}
	return c.bw.Flush()
}

// statusFor maps backend errors to wire statuses.
func statusFor(err error) (wire.Status, string) {
	switch {
	case errors.Is(err, skiphash.ErrNotDurable):
		return wire.StatusNotDurable, err.Error()
	case errors.Is(err, skiphash.ErrCorrupt):
		return wire.StatusCorrupt, err.Error()
	case errors.Is(err, ErrReadOnly):
		return wire.StatusReadOnly, err.Error()
	case errors.Is(err, ErrNsNotFound):
		return wire.StatusNsNotFound, err.Error()
	case errors.Is(err, ErrNsExists):
		return wire.StatusNsExists, err.Error()
	default:
		return wire.StatusErr, err.Error()
	}
}
