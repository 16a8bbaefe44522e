package repl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/stm"
	"repro/internal/wire"
	"repro/skiphash"
)

// ReplicaConfig configures a live replica.
type ReplicaConfig struct {
	// Addr is the primary's replication address (host:port).
	Addr string
	// Map tunes the replica's in-memory map; Clock and Durability are
	// overridden (the replica's clock is the lifted
	// monotonic clock, and its state is the stream, not a local log).
	Map skiphash.Config
	// RedialEvery paces reconnect attempts. Default 100ms.
	RedialEvery time.Duration
	// DialTimeout bounds one dial. Default 2s.
	DialTimeout time.Duration
	// Logf, when set, receives reconnect/apply diagnostics.
	Logf func(format string, args ...any)
}

// applyBatch is how many snapshot-chunk pairs one load transaction
// inserts, mirroring recovery's batched load.
const applyBatch = 128

// Replica follows a primary's WAL stream into a live in-memory map.
// The map serves read-only traffic (through Backend) at the advertised
// watermark until Promote makes it writable.
type Replica struct {
	cfg  ReplicaConfig
	lift *liftClock
	m    *skiphash.Sharded[int64, int64]

	epoch     uint64
	lastSeq   uint64
	catchup   map[int64]uint64 // per-key chunk stamps during full sync
	watermark atomic.Uint64
	promoted  atomic.Bool

	// Observability counters (see Stats). primStamp is the freshest
	// stamp the primary has advertised, updated at message receipt —
	// before apply — while watermark advances after, so
	// primStamp - watermark is the replica's instantaneous lag.
	records    atomic.Uint64
	resyncs    atomic.Uint64
	epochSwaps atomic.Uint64
	primStamp  atomic.Uint64

	ready     chan struct{}
	readyOnce sync.Once
	stopped   chan struct{}
	stopOnce  sync.Once
	done      chan struct{}

	mu sync.Mutex // guards nc
	nc net.Conn
}

// NewReplica builds the replica map and starts following cfg.Addr.
func NewReplica(cfg ReplicaConfig) *Replica {
	if cfg.RedialEvery == 0 {
		cfg.RedialEvery = 100 * time.Millisecond
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	lift := newLiftClock(stm.NewMonotonicClock())
	mc := cfg.Map
	mc.Clock = lift
	mc.Durability = nil
	r := &Replica{
		cfg:     cfg,
		lift:    lift,
		m:       skiphash.NewSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, mc),
		ready:   make(chan struct{}),
		stopped: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go r.run()
	return r
}

// Map exposes the replica's live map (reads only until promotion).
func (r *Replica) Map() *skiphash.Sharded[int64, int64] { return r.m }

// Watermark is the replica's applied commit-stamp watermark: every
// primary commit with stamp <= a value this returned is applied here,
// provided the caller observed its stamp through the same lineage's
// Watermark (see the package contract).
func (r *Replica) Watermark() uint64 { return r.watermark.Load() }

// WaitReady blocks until the replica has caught up once (or ctx ends).
func (r *Replica) WaitReady(ctx context.Context) error {
	select {
	case <-r.ready:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Promote stops following and makes the map writable. The lifted clock
// floors new commit stamps above every applied record, so the promoted
// node's commits extend the dead primary's order. The promoted map is
// not durable and not replicating; restart it with a durability
// directory to resume either.
func (r *Replica) Promote() error {
	r.stop()
	r.promoted.Store(true)
	return nil
}

// Close stops following and releases the map.
func (r *Replica) Close() {
	r.stop()
	r.m.Close()
}

func (r *Replica) stop() {
	r.stopOnce.Do(func() { close(r.stopped) })
	r.mu.Lock()
	if r.nc != nil {
		r.nc.Close()
	}
	r.mu.Unlock()
	<-r.done
}

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// run is the follower loop: dial, stream, redial until stopped.
func (r *Replica) run() {
	defer close(r.done)
	for {
		select {
		case <-r.stopped:
			return
		default:
		}
		nc, err := net.DialTimeout("tcp", r.cfg.Addr, r.cfg.DialTimeout)
		if err == nil {
			r.mu.Lock()
			r.nc = nc
			r.mu.Unlock()
			err = r.runConn(nc)
			r.mu.Lock()
			r.nc = nil
			r.mu.Unlock()
			nc.Close()
		}
		select {
		case <-r.stopped:
			return
		default:
			if err != nil {
				r.logf("repl: replica: %v", err)
			}
			select {
			case <-time.After(r.cfg.RedialEvery):
			case <-r.stopped:
				return
			}
		}
	}
}

// runConn speaks one follower connection end to end.
func (r *Replica) runConn(nc net.Conn) error {
	frame := wire.AppendReplMsg(nil, &wire.ReplMsg{Op: wire.OpFollow, Epoch: r.epoch, Seq: r.lastSeq})
	if _, err := nc.Write(frame); err != nil {
		return err
	}
	fr := wire.NewFrameReader(nc, wire.MaxResponsePayload)
	payload, err := fr.Next()
	if err != nil {
		return err
	}
	hdr, err := wire.ParseReplMsg(payload)
	if err != nil {
		return err
	}
	if hdr.Op != wire.OpFollow {
		return fmt.Errorf("expected Follow header, got %s", hdr.Op)
	}
	if hdr.Full {
		// Full resync: this primary incarnation (or a tail the ring no
		// longer holds) invalidates local state wholesale.
		r.resyncs.Add(1)
		if r.epoch != 0 && hdr.Epoch != r.epoch {
			r.epochSwaps.Add(1)
		}
		if err := r.clear(); err != nil {
			return err
		}
		r.catchup = make(map[int64]uint64)
		r.epoch = hdr.Epoch
		r.lastSeq = hdr.Seq
	} else if hdr.Epoch != r.epoch || hdr.Seq != r.lastSeq {
		return fmt.Errorf("tail header (%d,%d) does not match follower state (%d,%d)",
			hdr.Epoch, hdr.Seq, r.epoch, r.lastSeq)
	}
	for {
		payload, err := fr.Next()
		if err != nil {
			return err
		}
		m, err := wire.ParseReplMsg(payload)
		if err != nil {
			return err
		}
		switch m.Op {
		case wire.OpSnapChunk:
			if r.catchup == nil {
				return errors.New("snapshot chunk outside full sync")
			}
			if err := r.applyChunk(&m); err != nil {
				return err
			}
		case wire.OpWalRecord:
			if m.Seq != r.lastSeq+1 {
				return fmt.Errorf("record seq %d after %d", m.Seq, r.lastSeq)
			}
			r.raisePrimStamp(m.Stamp)
			if err := r.applyRecord(&m); err != nil {
				return err
			}
			r.records.Add(1)
			r.lastSeq = m.Seq
			r.advance(m.Stamp)
		case wire.OpCaughtUp:
			r.raisePrimStamp(m.Stamp)
			r.catchup = nil
			r.advance(m.Stamp)
			r.readyOnce.Do(func() { close(r.ready) })
		case wire.OpHeartbeat:
			r.raisePrimStamp(m.Stamp)
			r.advance(m.Stamp)
		default:
			return fmt.Errorf("unexpected %s on replication stream", m.Op)
		}
	}
}

// raisePrimStamp lifts the last-advertised primary stamp to s.
func (r *Replica) raisePrimStamp(s uint64) {
	for {
		cur := r.primStamp.Load()
		if s <= cur || r.primStamp.CompareAndSwap(cur, s) {
			return
		}
	}
}

// ReplicaStats is an observability snapshot of the follower.
type ReplicaStats struct {
	// Records counts WAL records applied since start.
	Records uint64
	// Resyncs counts full resyncs (snapshot + tail), including the
	// initial sync.
	Resyncs uint64
	// EpochChanges counts primary-incarnation changes observed (a
	// resync against a different epoch than the last one followed).
	EpochChanges uint64
	// PrimaryStamp is the freshest commit stamp the primary advertised;
	// Watermark the stamp applied locally. PrimaryStamp - Watermark is
	// the instantaneous replication lag in stamp units.
	PrimaryStamp uint64
	Watermark    uint64
}

// Stats returns the follower's counters; safe concurrent with the
// stream.
func (r *Replica) Stats() ReplicaStats {
	return ReplicaStats{
		Records:      r.records.Load(),
		Resyncs:      r.resyncs.Load(),
		EpochChanges: r.epochSwaps.Load(),
		PrimaryStamp: r.primStamp.Load(),
		Watermark:    r.watermark.Load(),
	}
}

// advance lifts the watermark (and the commit-clock floor) to s.
func (r *Replica) advance(s uint64) {
	for {
		cur := r.watermark.Load()
		if s <= cur {
			return
		}
		if r.watermark.CompareAndSwap(cur, s) {
			r.lift.Raise(s)
			return
		}
	}
}

// clear empties the map before a full resync.
func (r *Replica) clear() error {
	var pairs []skiphash.Pair[int64, int64]
	pairs = r.m.Range(math.MinInt64, math.MaxInt64, pairs[:0])
	for len(pairs) > 0 {
		batch := pairs
		if len(batch) > applyBatch {
			batch = pairs[:applyBatch]
		}
		err := r.m.Atomic(func(op *skiphash.Txn[int64, int64]) error {
			for _, p := range batch {
				op.Remove(p.Key)
			}
			return nil
		})
		if err != nil {
			return err
		}
		pairs = pairs[len(batch):]
	}
	return nil
}

// applyChunk loads one snapshot chunk, recording each key's chunk
// stamp so overlapping tail records replay idempotently (the recovery
// rule: a record touches a key only if its stamp is at or above the
// key's chunk stamp).
func (r *Replica) applyChunk(m *wire.ReplMsg) error {
	pairs := m.Pairs
	for len(pairs) > 0 {
		batch := pairs
		if len(batch) > applyBatch {
			batch = pairs[:applyBatch]
		}
		err := r.m.Atomic(func(op *skiphash.Txn[int64, int64]) error {
			for _, p := range batch {
				op.Put(p.Key, p.Val)
			}
			return nil
		})
		if err != nil {
			return err
		}
		pairs = pairs[len(batch):]
	}
	for _, p := range m.Pairs {
		r.catchup[p.Key] = m.Stamp
	}
	return nil
}

// applyRecord applies one WAL record as one transaction, mirroring
// recovery replay: during catch-up a key whose chunk stamp exceeds the
// record's stamp already reflects it (or newer) and is skipped; live
// records apply unconditionally in stream order, which is commit order
// for any two records that could disagree about a key.
func (r *Replica) applyRecord(m *wire.ReplMsg) error {
	ic := persist.Int64Codec()
	return r.m.Atomic(func(op *skiphash.Txn[int64, int64]) error {
		skip := func(k int64) bool {
			if r.catchup == nil {
				return false
			}
			ws, ok := r.catchup[k]
			return ok && m.Stamp < ws
		}
		return persist.DecodeOps(m.Ops, m.Count, ic, ic,
			func(k, v int64) error {
				if !skip(k) {
					op.Put(k, v)
				}
				return nil
			},
			func(k int64) error {
				if !skip(k) {
					op.Remove(k)
				}
				return nil
			})
	})
}

// --- Serving backends ---------------------------------------------------

// Backend returns a server.Backend over the replica map: reads are
// served live, writes (and the durability surface) answer
// server.ErrReadOnly until promotion. It implements server.Watermarker
// and server.Promoter, wiring OpWatermark and OpPromote.
func (r *Replica) Backend() server.Backend {
	return &replicaBackend{Backend: server.NewShardedBackend(r.m), r: r}
}

type replicaBackend struct {
	server.Backend
	r *Replica
}

func (b *replicaBackend) Atomic(group []wire.Request, resps []wire.Response) error {
	if !b.r.promoted.Load() {
		return server.ErrReadOnly
	}
	return b.Backend.Atomic(group, resps)
}

func (b *replicaBackend) Sync() error {
	if !b.r.promoted.Load() {
		return server.ErrReadOnly
	}
	return b.Backend.Sync()
}

func (b *replicaBackend) Snapshot() error {
	if !b.r.promoted.Load() {
		return server.ErrReadOnly
	}
	return b.Backend.Snapshot()
}

// Watermark implements server.Watermarker.
func (b *replicaBackend) Watermark() uint64 { return b.r.Watermark() }

// Promote implements server.Promoter.
func (b *replicaBackend) Promote() error { return b.r.Promote() }

// PrimaryBackend decorates a primary's serving backend with a
// Watermark: a fresh commit-clock read, which by the publish-order
// argument in Primary.sender bounds every commit a client has seen a
// response for.
func PrimaryBackend(be server.Backend, clockRead func() uint64) server.Backend {
	return &primaryBackend{Backend: be, read: clockRead}
}

type primaryBackend struct {
	server.Backend
	read func() uint64
}

// Watermark implements server.Watermarker.
func (b *primaryBackend) Watermark() uint64 { return b.read() }
