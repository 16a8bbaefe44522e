// Package client is the Go client for the skip hash network protocol
// served by cmd/skiphashd (internal/server, internal/wire).
//
// A Client owns a pool of connections. Every served map — the default
// int64 map, which the Client embeds, and each byte-string namespace
// (CreateNamespace, Namespace) — is a Map with one set of synchronous
// methods (Get/Insert/Put/Remove/Range/RangeFrom/Atomic/Sync/Snapshot):
// they round-robin over the pool and behave like the embedded map's,
// with an error result added for the transport. For throughput,
// pipeline: obtain a Conn and issue Start calls — each returns a Call
// immediately — then Flush and Wait. The server coalesces a pipelined
// burst into single atomic transactions and answers with one write, so
// a window of W in-flight requests costs ~1/W of the per-op round trips
// of the closed loop.
//
// # Call lifetime
//
// A Call is valid from the Start that returns it until its Wait returns.
// Wait hands the response out by value — the Response and the slices in
// it belong to the caller — and gives the Call back to its connection,
// which reuses it for a later Start, so Wait is called at most once per
// Call and the Call is not touched afterwards. A Call that is never
// waited on is simply not reused; abandoning one is safe. In steady
// state the request path (Start, Flush, Wait, Do) allocates nothing for
// v1 requests; a v2 request allocates only the caller-owned chunks
// its byte strings are decoded into.
//
// The connection decodes byte strings into 4 KiB chunks that it never
// reuses: a value, key or step result of up to 512 bytes shares its
// chunk with the results decoded around it, and a longer one has its
// own allocation. Every result slice stays the caller's to read, keep
// and modify, but one small slice kept keeps its whole chunk alive; copy
// it out if a long-lived slice would pin memory that matters.
//
// Errors mirror the embedded map's typed errors: Sync/Snapshot on a
// non-durable server fails with skiphash.ErrNotDurable, durability-layer
// corruption with an error matching skiphash.ErrCorrupt; both are
// errors.Is-compatible. Transport failures fail every in-flight call
// with ErrConnClosed (wrapping the cause), after which the connection
// is unusable.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/skiphash"
)

// Batch step kinds.
const (
	StepInsert = wire.StepInsert
	StepRemove = wire.StepRemove
	StepLookup = wire.StepLookup
)

// Typed errors. ErrNotDurable and ErrCorrupt are the map's own
// sentinels, so errors.Is behaves identically against a local map and a
// served one.
var (
	ErrNotDurable = skiphash.ErrNotDurable
	ErrCorrupt    = skiphash.ErrCorrupt
	// ErrServerBusy reports the server refused the connection at its
	// connection limit.
	ErrServerBusy = errors.New("client: server at connection limit")
	// ErrShuttingDown reports the server is draining.
	ErrShuttingDown = errors.New("client: server shutting down")
	// ErrConnClosed fails calls whose connection died before their
	// response arrived.
	ErrConnClosed = errors.New("client: connection closed")
	// ErrReadOnly mirrors server.ErrReadOnly: a write (or Sync/
	// Snapshot) reached a replica that has not been promoted.
	ErrReadOnly = errors.New("client: server is a read-only replica")
	// errStale marks a replica whose watermark has not reached a GetAt
	// read barrier; GetAt falls through to the next replica on it.
	errStale = errors.New("client: replica watermark below read barrier")
)

// Options tunes Dial.
type Options struct {
	// Conns is the pool size. Default 1.
	Conns int
	// DialTimeout bounds each connection attempt. Default 5s.
	DialTimeout time.Duration
	// WriteTimeout bounds each flush. Default 10s; negative disables.
	WriteTimeout time.Duration
	// Replicas lists replica server addresses (same address syntax as
	// Dial) for read fan-out: GetAt round-robins watermark-barriered
	// reads over them, falling back to the primary pool. One connection
	// per address.
	Replicas []string
}

func (o Options) withDefaults() Options {
	if o.Conns == 0 {
		o.Conns = 1
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 10 * time.Second
	}
	return o
}

// Client is a pool of protocol connections. All methods are safe for
// concurrent use.
type Client struct {
	// Map is the default map, namespace 0, reached over the v1 int64
	// frames; its methods are the Client's data operations.
	*Map[int64, int64]
	conns    []*Conn
	replicas []*Conn
	next     atomic.Uint64
	rnext    atomic.Uint64
}

// splitNetwork infers the network from the address syntax: an address
// containing a path separator (or prefixed "unix:") is a unix socket,
// anything else TCP.
func splitNetwork(addr string) (network, bare string) {
	if strings.HasPrefix(addr, "unix:") {
		return "unix", strings.TrimPrefix(addr, "unix:")
	}
	if strings.ContainsAny(addr, "/\\") {
		return "unix", addr
	}
	return "tcp", addr
}

// Dial connects a pool to addr. The network is inferred (see
// splitNetwork); Dial2 pins it explicitly.
func Dial(addr string, opts Options) (*Client, error) {
	network, addr := splitNetwork(addr)
	return Dial2(network, addr, opts)
}

// Dial2 connects a pool over an explicit network ("tcp", "unix").
// Replica connections (Options.Replicas) infer their network per
// address.
func Dial2(network, addr string, opts Options) (*Client, error) {
	if opts.Conns < 0 {
		return nil, fmt.Errorf("client: Options.Conns = %d, want >= 0", opts.Conns)
	}
	opts = opts.withDefaults()
	c := &Client{conns: make([]*Conn, 0, opts.Conns)}
	c.Map = &Map[int64, int64]{c: c, name: "default", cd: int64Codec{}}
	for i := 0; i < opts.Conns; i++ {
		cn, err := dialConn(network, addr, opts)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, cn)
	}
	for _, raddr := range opts.Replicas {
		rn, ra := splitNetwork(raddr)
		cn, err := dialConn(rn, ra, opts)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.replicas = append(c.replicas, cn)
	}
	return c, nil
}

// NumConns reports the pool size.
func (c *Client) NumConns() int { return len(c.conns) }

// NumReplicas reports the replica connection count.
func (c *Client) NumReplicas() int { return len(c.replicas) }

// Conn returns pool member i, for callers managing pipelining
// explicitly (one goroutine per connection).
func (c *Client) Conn(i int) *Conn { return c.conns[i] }

// pick round-robins the pool.
func (c *Client) pick() *Conn {
	return c.conns[c.next.Add(1)%uint64(len(c.conns))]
}

// Close closes every connection; in-flight calls fail with
// ErrConnClosed.
func (c *Client) Close() error {
	var first error
	for _, cn := range append(append([]*Conn(nil), c.conns...), c.replicas...) {
		if cn == nil {
			continue
		}
		if err := cn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// GetAt reads k with a commit-stamp barrier: the read is served by a
// replica only if that replica's watermark strictly exceeds minStamp —
// meaning every primary commit with stamp <= minStamp is applied there
// — and otherwise falls through the remaining replicas to the primary.
// Callers obtain minStamp from Watermark on the same lineage (the
// primary answers a fresh clock read, which bounds every commit it has
// acknowledged). With no replicas configured it is Get.
func (c *Client) GetAt(k int64, minStamp uint64) (v int64, ok bool, err error) {
	if n := uint64(len(c.replicas)); n > 0 {
		start := c.rnext.Add(1)
		for i := uint64(0); i < n; i++ {
			cn := c.replicas[(start+i)%n]
			v, ok, err := cn.getAt(k, minStamp)
			if err == nil {
				return v, ok, nil
			}
		}
	}
	return c.Get(k)
}

// Watermark reports the primary's commit-stamp watermark — an upper
// bound covering every write this client has seen complete — for use
// as a GetAt barrier.
func (c *Client) Watermark() (uint64, error) {
	resp, err := c.pick().Do(&wire.Request{Op: wire.OpWatermark})
	return uint64(resp.Val), err
}

// Promote asks the server to make its replica map writable. Against a
// primary (or a non-promotable backend) it fails.
func (c *Client) Promote() error {
	_, err := c.pick().Do(&wire.Request{Op: wire.OpPromote})
	return err
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.pick().Do(&wire.Request{Op: wire.OpPing})
	return err
}

// ServerStats fetches the server's metrics registry rendered in the
// Prometheus text exposition format. Servers without a registry answer
// with an error.
func (c *Client) ServerStats() ([]byte, error) {
	resp, err := c.pick().Do(&wire.Request{Op: wire.OpStats})
	return resp.BVal, err
}

// Conn is one protocol connection. It is safe for concurrent use;
// pipelining callers typically dedicate it to one goroutine.
type Conn struct {
	nc net.Conn

	mu  sync.Mutex // guards everything below but wt
	bw  *bufio.Writer
	enc []byte // request-encode scratch, reused under mu
	id  uint64 // last id assigned; ids are sequential
	// ring holds the in-flight calls, the call with id i at ring[i&mask]
	// (len(ring) is a power of two). It doubles only when a new id lands
	// on a slot whose call is still in flight, so it settles at the span
	// of ids in flight — their number, with a server answering in order.
	ring []*Call
	free *Call // completed-and-waited calls, linked through Call.next
	err  error // sticky transport error
	wt   time.Duration

	closeOnce  sync.Once // guards nc.Close: exactly one teardown
	readerDone chan struct{}
}

// initialRing is a new connection's slot count: the closed loop needs
// one slot, a pipelining caller grows the ring to its window once.
const initialRing = 16

// Call is one in-flight request; see the package doc for its lifetime.
type Call struct {
	cn *Conn
	// done carries one token per completion — put there by whoever takes
	// the call out of the ring (the reader or fail), taken by Wait — so
	// the channel is made once and serves every reuse of the call.
	done chan struct{}
	id   uint64 // the request id this call answers; 0 once waited
	resp wire.Response
	err  error
	next *Call // free-list link
}

// Wait blocks for the response and decodes its status into the typed
// errors. It may be called at most once per Call: it returns the Call to
// the connection for reuse, and a second Wait caught before that reuse
// panics.
func (call *Call) Wait() (wire.Response, error) {
	if call.id == 0 {
		panic("client: Wait called twice on one Call")
	}
	<-call.done
	resp, err := call.resp, call.err
	if err == nil {
		err = statusError(&resp)
	}
	call.resp, call.err = wire.Response{}, nil // drop the result's slices
	cn := call.cn
	cn.mu.Lock()
	cn.release(call)
	cn.mu.Unlock()
	return resp, err
}

// release puts a call nobody holds any more on the free list.
func (cn *Conn) release(call *Call) {
	call.id = 0
	call.next, cn.free = cn.free, call
}

// slot is where the ring keeps the call with the given id.
func (cn *Conn) slot(id uint64) **Call { return &cn.ring[id&uint64(len(cn.ring)-1)] }

func dialConn(network, addr string, opts Options) (*Conn, error) {
	nc, err := net.DialTimeout(network, addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // pipelining batches writes itself; Nagle only adds latency
	}
	return newConn(nc, opts.WriteTimeout), nil
}

// newConn starts the protocol on an established transport.
func newConn(nc net.Conn, writeTimeout time.Duration) *Conn {
	cn := &Conn{
		nc:         nc,
		bw:         bufio.NewWriterSize(nc, 64<<10),
		ring:       make([]*Call, initialRing),
		wt:         writeTimeout,
		readerDone: make(chan struct{}),
	}
	go cn.readLoop()
	return cn
}

// maxDemux bounds how many buffered responses the reader retires per
// lock acquisition (and so the scratch it keeps for them).
const maxDemux = 256

// readLoop demultiplexes responses to their in-flight calls: like the
// server's loop it takes what one read brought in as a batch, and
// retires the batch under one lock acquisition.
func (cn *Conn) readLoop() {
	defer close(cn.readerDone)
	br := bufio.NewReaderSize(cn.nc, 64<<10)
	fr := wire.NewFrameReader(br, wire.MaxResponsePayload)
	var (
		batch []wire.Response
		calls []*Call
		// The responses' byte strings. It is never rewound: every slice
		// it hands out goes to a caller, who owns it.
		arena wire.Arena
	)
	for {
		var rerr, err error
		batch, rerr = readBatch(fr, &arena, batch[:0])
		calls, err = cn.retire(batch, calls[:0])
		for i, call := range calls {
			call.resp = batch[i]
			call.done <- struct{}{} // capacity 1, one token per registration: never blocks
		}
		clear(batch) // do not pin delivered results until the next batch
		clear(calls)
		if err == nil {
			err = rerr
		}
		if err != nil {
			cn.fail(err)
			return
		}
	}
}

// readBatch blocks for one response, then takes the ones that read left
// whole in the buffer, up to maxDemux, without reading the socket again.
// An error comes with the responses read before it.
func readBatch(fr *wire.FrameReader, arena *wire.Arena, batch []wire.Response) ([]wire.Response, error) {
	for {
		payload, err := fr.Next()
		if err != nil {
			return batch, fmt.Errorf("%w: %w", ErrConnClosed, err)
		}
		resp, err := arena.ParseResponse(payload)
		if err != nil {
			return batch, fmt.Errorf("%w: %w", ErrConnClosed, err)
		}
		if resp.ID == 0 {
			// Unsolicited terminal frame: the server refusing the
			// connection (busy / shutting down).
			return batch, refusalError(&resp)
		}
		batch = append(batch, resp)
		if len(batch) == maxDemux || !fr.Ready() {
			return batch, nil
		}
	}
}

// retire takes batch's calls out of the ring, appending them to calls in
// batch order; from then on each belongs to the reader alone, which
// fills in its response and completes it outside the lock. It stops at a
// response whose id no call in flight carries — never sent, or answered
// already. No legitimate server sends one, and it must not be delivered
// anywhere (the slot's owner id is checked, so it cannot complete a Call
// since reused for another request): the connection fails.
func (cn *Conn) retire(batch []wire.Response, calls []*Call) ([]*Call, error) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	for i := range batch {
		id := batch[i].ID
		slot := cn.slot(id)
		call := *slot
		if call == nil || call.id != id {
			return calls, fmt.Errorf("%w: response for id %d, which matches no call in flight", ErrConnClosed, id)
		}
		*slot = nil
		calls = append(calls, call)
	}
	return calls, nil
}

// fail marks the connection dead and fails every in-flight call,
// returning the sticky error (the first failure wins). Teardown is
// idempotent: however many times the reader, a writer and Close race
// into here, the socket closes once and the first cause survives.
func (cn *Conn) fail(err error) error {
	cn.mu.Lock()
	if cn.err == nil {
		cn.err = err
	}
	sticky := cn.err
	for i, call := range cn.ring {
		if call != nil {
			cn.ring[i] = nil
			call.err = sticky
			call.done <- struct{}{} // never blocks, as in readLoop
		}
	}
	cn.mu.Unlock()
	cn.closeOnce.Do(func() { cn.nc.Close() })
	return sticky
}

// Start encodes req into the connection's write buffer and registers a
// Call for it; the request reaches the wire on the next Flush (or when
// the buffer fills). The req.ID field is assigned by the connection.
func (cn *Conn) Start(req *wire.Request) (*Call, error) { return cn.start(req, false) }

// start is Start, with the flush Do needs folded into the same critical
// section when flush is set.
func (cn *Conn) start(req *wire.Request, flush bool) (*Call, error) {
	cn.mu.Lock()
	if cn.err != nil {
		err := cn.err
		cn.mu.Unlock()
		return nil, err
	}
	call := cn.free
	if call != nil {
		cn.free, call.next = call.next, nil
	} else {
		call = &Call{cn: cn, done: make(chan struct{}, 1)}
	}
	cn.id++
	req.ID, call.id = cn.id, cn.id
	for *cn.slot(call.id) != nil {
		cn.growRing()
	}
	*cn.slot(call.id) = call
	// Encoding under mu keeps pipelined frames contiguous and lets the
	// scratch buffer be reused across requests; bufio copies the bytes
	// out, so contention is memcpy-bounded and allocation-free.
	cn.enc = wire.AppendRequest(cn.enc[:0], req)
	if cn.wt > 0 && (flush || cn.bw.Available() < len(cn.enc)) {
		// This write reaches the socket (a flush, or bufio spilling its
		// full buffer). Arm a fresh deadline: an absolute deadline left
		// over from an earlier flush may already lie in the past and would
		// fail a perfectly healthy connection.
		cn.nc.SetWriteDeadline(time.Now().Add(cn.wt))
	}
	_, werr := cn.bw.Write(cn.enc)
	if werr == nil && flush {
		werr = cn.bw.Flush()
	}
	if werr != nil {
		// The caller never sees this call: take it back before fail
		// completes what is in flight.
		*cn.slot(call.id) = nil
		cn.release(call)
	}
	cn.mu.Unlock()
	if werr != nil {
		return nil, cn.fail(fmt.Errorf("%w: %w", ErrConnClosed, werr))
	}
	return call, nil
}

// growRing doubles the ring. Ids distinct modulo the old size stay
// distinct modulo the new one, so rehoming cannot collide.
func (cn *Conn) growRing() {
	ring := make([]*Call, 2*len(cn.ring))
	mask := uint64(len(ring) - 1)
	for _, call := range cn.ring {
		if call != nil {
			ring[call.id&mask] = call
		}
	}
	cn.ring = ring
}

// Flush pushes every buffered request to the wire.
func (cn *Conn) Flush() error {
	cn.mu.Lock()
	if cn.err != nil {
		err := cn.err
		cn.mu.Unlock()
		return err
	}
	if cn.wt > 0 {
		cn.nc.SetWriteDeadline(time.Now().Add(cn.wt))
	}
	err := cn.bw.Flush()
	cn.mu.Unlock()
	if err != nil {
		return cn.fail(fmt.Errorf("%w: %w", ErrConnClosed, err))
	}
	return nil
}

// Do issues req synchronously: Start and Flush in one critical section,
// then Wait.
func (cn *Conn) Do(req *wire.Request) (wire.Response, error) {
	call, err := cn.start(req, true)
	if err != nil {
		return wire.Response{}, err
	}
	return call.Wait()
}

// Close tears the connection down; in-flight calls fail with
// ErrConnClosed. A clean close (this Close was the first failure, on
// either call of a double Close) returns nil; a connection that had
// already died returns the original transport failure instead of
// swallowing it, wrapped in ErrConnClosed by the path that recorded
// it.
func (cn *Conn) Close() error {
	err := cn.fail(ErrConnClosed)
	<-cn.readerDone
	if err == ErrConnClosed { // the bare sentinel: closed by Close, not by a failure
		return nil
	}
	return err
}

// getAt pipelines Watermark+Get in one flush on this (replica)
// connection. The server executes a connection's requests in order, so
// when the watermark response strictly exceeds minStamp, every commit
// at or below minStamp was applied before the Get executed and the
// read is valid under the barrier; otherwise errStale sends the caller
// to the next replica.
func (cn *Conn) getAt(k int64, minStamp uint64) (int64, bool, error) {
	wcall, err := cn.Start(&wire.Request{Op: wire.OpWatermark})
	if err != nil {
		return 0, false, err
	}
	gcall, err := cn.start(&wire.Request{Op: wire.OpGet, Key: k}, true)
	if err != nil {
		// Start fails only on a dead connection, and fail has completed
		// (or is completing) everything in flight on it.
		wcall.Wait()
		return 0, false, err
	}
	wresp, werr := wcall.Wait()
	gresp, gerr := gcall.Wait()
	if werr != nil {
		return 0, false, werr
	}
	if uint64(wresp.Val) <= minStamp {
		return 0, false, errStale
	}
	if gerr != nil {
		return 0, false, gerr
	}
	return gresp.Val, gresp.Ok, nil
}

// statusError maps a response status onto the typed errors.
func statusError(resp *wire.Response) error {
	switch resp.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusNotDurable:
		return ErrNotDurable
	case wire.StatusCorrupt:
		return fmt.Errorf("client: server reported %q: %w", resp.Msg, ErrCorrupt)
	case wire.StatusBusy:
		return ErrServerBusy
	case wire.StatusShuttingDown:
		return ErrShuttingDown
	case wire.StatusReadOnly:
		return ErrReadOnly
	case wire.StatusNsNotFound:
		return fmt.Errorf("client: server reported %q: %w", resp.Msg, ErrNamespaceNotFound)
	case wire.StatusNsExists:
		return fmt.Errorf("client: server reported %q: %w", resp.Msg, ErrNamespaceExists)
	default:
		return fmt.Errorf("client: server error: %s", resp.Msg)
	}
}

// refusalError interprets an id-0 terminal frame.
func refusalError(resp *wire.Response) error {
	switch resp.Status {
	case wire.StatusBusy:
		return ErrServerBusy
	case wire.StatusShuttingDown:
		return ErrShuttingDown
	default:
		return fmt.Errorf("%w: unsolicited %s frame", ErrConnClosed, resp.Status)
	}
}

var _ io.Closer = (*Conn)(nil)
