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
// resolving the namespace, its run lock and connection quota,
// coalescing, metrics and trace annotations — treats namespace 0 like
// any other. Creating and dropping a namespace are admin operations that
// hold the registry's lock throughout: while a durable create recovers
// or a drop waits out in-flight runs, closes the map and deletes its
// directory, namespace lookups (all v2 traffic) wait.
//
// # Pipelining and batching
//
// Each connection is one goroutine running one loop. It blocks reading
// a request frame, takes every further frame that read left whole in
// its buffer (up to maxBatch, 64) without touching the socket again,
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
// A run never leaves its namespace or frame family: it ends at the end
// of the batch, or where the next request addresses another namespace
// or family or cannot coalesce.
//
// Reads are segregated from writes: a coalesced run consisting purely
// of Gets skips the atomic-txn machinery and is answered through the
// backend's direct read path (the map's optimistic non-transactional
// fast path).
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
//
// # Followers
//
// Replication rides the serving connections. A Follow request to a
// server whose namespace-0 backend is a Streamer is answered StatusOK;
// once that response is flushed the loop clears the connection's
// deadlines and hands it to the Streamer, which writes the replication
// stream on it until the follower goes away. The requests after the
// Follow are not answered. A follower is one of the server's
// connections: it counts against MaxConns, and Shutdown closes it when
// the drain starts, since a stream never reads and no read deadline
// could end it. Request latency and slow-op tracing see the Follow
// request up to its response, never the stream.
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
	// duration, and the retries of the coalesced transaction the request
	// ran in (0 for a request that ran in none).
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxConns == 0 {
		c.MaxConns = 256
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
// be's map: Shutdown stops serving it but does not close it.
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
		resps: make([]wire.Response, maxBatch),
		track: s.met != nil || s.cfg.Tracer != nil,
	}
	if c.track {
		c.notes = make([]note, maxBatch)
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
// and the registry's namespaces are closed; the default namespace's
// map is left open for its owner. Connections still open when ctx expires are
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
	// arena holds the byte strings of the cycle's requests. readCycle
	// rewinds it: a cycle is answered before the next read, and the
	// backend copies whatever the map or the WAL keeps.
	arena wire.Arena

	// Observability scratch (see metrics.go), allocated once when track
	// is set: when the cycle's blocking read returned — the arrival of
	// every request in it — and one note per request, indexed by batch
	// position.
	track   bool
	arrival time.Time
	notes   []note

	// attached caches which connection-limited namespaces this
	// connection has been admitted to, so the quota check is a
	// conn-local map hit after the first request.
	attached map[*namespace]struct{}

	// follow is set by an accepted Follow request: once the cycle is
	// flushed, the connection carries follow's stream from followAt
	// (epoch, log position). streaming marks the hand-off.
	follow    Streamer
	followAt  [2]uint64
	streaming atomic.Bool

	drained atomic.Bool
}

func (c *conn) logf(format string, args ...any) {
	if c.srv.cfg.Logf != nil {
		c.srv.cfg.Logf(format, args...)
	}
}

// startDrain fails the loop's next blocking read; frames it has already
// read, executing or whole in its buffer, are still answered. A
// connection handed to a stream is closed instead.
func (c *conn) startDrain() {
	c.drained.Store(true)
	if c.streaming.Load() {
		c.nc.Close()
		return
	}
	c.nc.SetReadDeadline(time.Unix(1, 0))
}

// stream hands the connection to the Streamer an accepted Follow named,
// after its response has been flushed. The cycle's deadlines are
// cleared: a stream writes for as long as the follower reads.
func (c *conn) stream() {
	// Like the idle re-arm in serve: startDrain sets drained before it
	// reads streaming, and this reads drained after setting streaming,
	// so one side always sees the other and a drain cannot miss the
	// stream.
	c.streaming.Store(true)
	c.nc.SetDeadline(time.Time{})
	if c.drained.Load() {
		return
	}
	err := c.follow.Stream(c.nc, c.followAt[0], c.followAt[1])
	if err != nil && !errors.Is(err, io.EOF) && !c.drained.Load() {
		c.logf("server: %s: follower: %v", c.nc.RemoteAddr(), err)
	}
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
			c.execute(c.batch)
			if err := c.flush(); err != nil {
				c.logf("server: %s: write: %v", c.nc.RemoteAddr(), err)
				return
			}
			if c.track {
				c.observe(c.batch)
			}
			if c.follow != nil {
				c.stream()
				return
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

// maxBatch bounds a drain cycle, and with it the requests one Atomic
// transaction may coalesce.
const maxBatch = 64

// readCycle fills c.batch: it blocks for one request frame, then takes
// the frames that read left whole in the buffer, up to maxBatch, without
// reading the socket again — the kernel's socket buffer is the queue. An
// error comes with the requests read before it.
func (c *conn) readCycle(fr *wire.FrameReader) error {
	c.batch = c.batch[:0]
	c.arena.Rewind()
	for {
		payload, err := fr.Next()
		if err != nil {
			return err
		}
		if c.track && len(c.batch) == 0 {
			c.arrival = time.Now()
		}
		req, err := c.arena.ParseRequest(payload)
		if err != nil {
			return err
		}
		c.push(req)
		if len(c.batch) == maxBatch || !fr.Ready() {
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
		c.notes[len(c.batch)-1] = note{ns: c.srv.def}
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
