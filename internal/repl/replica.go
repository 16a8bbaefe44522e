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
	// Map tunes the replica's in-memory map; Durability is ignored (the
	// replica's state is the stream, not a local log). The map's commit
	// clock is raised to every applied stamp.
	Map skiphash.Config
	// RedialEvery paces reconnect attempts. Default 100ms.
	RedialEvery time.Duration
	// DialTimeout bounds one dial. Default 2s.
	DialTimeout time.Duration
	// Logf, when set, receives reconnect/apply diagnostics.
	Logf func(format string, args ...any)
}

// applyBatch is how many ops one transaction of a resync's reload
// applies.
const applyBatch = 128

// Replica follows a primary's WAL stream into a live in-memory map.
// The map serves read-only traffic (through Backend) at the advertised
// watermark until Promote makes it writable.
type Replica struct {
	cfg ReplicaConfig
	m   *skiphash.Map[int64, int64]

	// epoch and pos name the log position the map reflects: the end of
	// the last frame applied. A full resync moves them only once its
	// fold is loaded.
	epoch     uint64
	pos       uint64
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
	r := &Replica{
		cfg:     cfg,
		m:       skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg.Map),
		ready:   make(chan struct{}),
		stopped: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go r.run()
	return r
}

// Map exposes the replica's live map (reads only until promotion).
func (r *Replica) Map() *skiphash.Map[int64, int64] { return r.m }

// Watermark is the replica's applied commit-stamp watermark: every
// primary commit with stamp <= a value this returned is applied here,
// provided the caller observed its stamp through the same lineage's
// Watermark (see the package contract). It is 0 while a full resync
// runs.
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

// Promote stops following and makes the map writable. The clock floor
// keeps new commit stamps above every applied record, so the promoted
// node's commits extend the dead primary's order. The promoted map is
// not durable and not replicating: its state lives only in this
// process's memory and is lost when the process exits.
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
	frame := wire.AppendReplMsg(nil, &wire.ReplMsg{Op: wire.OpFollow, Epoch: r.epoch, Seq: r.pos})
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
	// A full resync leaves the map serving its old state and folds the
	// streamed snapshot file, whole before the first log frame or
	// CaughtUp, and the log after it the way recovery folds a snapshot
	// and its log; the map is reloaded from the fold at CaughtUp.
	// Meanwhile the watermark reads 0, so barriered reads go to the
	// primary, and only the clock floor follows the streamed stamps.
	var fold *persist.Fold[int64, int64]
	pos := r.pos
	if hdr.Full {
		r.watermark.Store(0)
		r.resyncs.Add(1)
		if r.epoch != 0 && hdr.Epoch != r.epoch {
			r.epochSwaps.Add(1)
		}
		ic := persist.Int64Codec()
		fold = persist.NewFold(skiphash.Int64Less, ic, ic)
		pos = hdr.Seq
	} else if hdr.Epoch != r.epoch || hdr.Seq != r.pos {
		return fmt.Errorf("tail header (%d,%d) does not match follower state (%d,%d)",
			hdr.Epoch, hdr.Seq, r.epoch, r.pos)
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
		if fold != nil && m.Op != wire.OpSnapChunk {
			if err := fold.EndSnapshot(); err != nil {
				return err
			}
		}
		switch m.Op {
		case wire.OpSnapChunk:
			if fold == nil {
				return errors.New("snapshot bytes outside full sync")
			}
			if err := fold.AddSnapshot(m.Data); err != nil {
				return err
			}
		case wire.OpWalRecord:
			if pos, err = r.applyRun(fold, pos, &m); err != nil {
				return err
			}
		case wire.OpCaughtUp:
			r.raisePrimStamp(m.Stamp)
			if fold != nil {
				if err := r.reload(fold.Pairs()); err != nil {
					return err
				}
				fold = nil
				r.epoch, r.pos = hdr.Epoch, pos
				r.m.Runtime().Clock().Raise(m.Stamp)
				r.watermark.Store(m.Stamp)
			} else {
				r.advance(m.Stamp)
			}
			r.readyOnce.Do(func() { close(r.ready) })
		case wire.OpHeartbeat:
			if fold != nil {
				return errors.New("heartbeat during full sync")
			}
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

// advance lifts the commit-clock floor, then the watermark, to s.
func (r *Replica) advance(s uint64) {
	r.m.Runtime().Clock().Raise(s)
	for {
		cur := r.watermark.Load()
		if s <= cur || r.watermark.CompareAndSwap(cur, s) {
			return
		}
	}
}

// reload makes the map hold exactly pairs (strictly ascending, a full
// resync's folded state): keys the pairs lack are removed first, then
// every pair is put, applyBatch ops per transaction.
func (r *Replica) reload(pairs []persist.KV[int64, int64]) error {
	var gone []int64
	j := 0
	for _, p := range r.m.Range(math.MinInt64, math.MaxInt64, nil) {
		for j < len(pairs) && pairs[j].Key < p.Key {
			j++
		}
		if j == len(pairs) || pairs[j].Key != p.Key {
			gone = append(gone, p.Key)
		}
	}
	n := len(gone) + len(pairs)
	for lo := 0; lo < n; lo += applyBatch {
		err := r.m.Atomic(func(op *skiphash.Txn[int64, int64]) error {
			for i := lo; i < min(lo+applyBatch, n); i++ {
				if i < len(gone) {
					op.Remove(gone[i])
				} else {
					p := pairs[i-len(gone)]
					op.Put(p.Key, p.Val)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// applyRun takes one WalRecord, a run of WAL frames that must start at
// pos, the end of everything taken so far, and returns the position
// after it. Each frame passes recovery's own check (persist.WalkFrames)
// before its record is used: folded during a full resync, otherwise
// applied as one transaction, in stream order (commit order for any two
// records that could disagree about a key), lifting the watermark to
// its stamp. A refused run leaves pos where it was, so the primary
// resends it whole; reapplying a prefix of it is harmless.
func (r *Replica) applyRun(fold *persist.Fold[int64, int64], pos uint64, m *wire.ReplMsg) (uint64, error) {
	if m.Seq != pos {
		return pos, fmt.Errorf("log run at position %d, want %d", m.Seq, pos)
	}
	ic := persist.Int64Codec()
	err := persist.WalkFrames(m.Data, func(_ int64, stamp, count uint64, ops []byte) error {
		r.raisePrimStamp(stamp)
		r.records.Add(1)
		if fold != nil {
			if err := fold.AddOps(stamp, count, ops); err != nil {
				return err
			}
			r.m.Runtime().Clock().Raise(stamp)
			return nil
		}
		err := r.m.Atomic(func(op *skiphash.Txn[int64, int64]) error {
			return persist.DecodeOps(ops, count, ic, ic,
				func(k, v int64) error {
					op.Put(k, v)
					return nil
				},
				func(k int64) error {
					op.Remove(k)
					return nil
				})
		})
		if err != nil {
			return err
		}
		r.advance(stamp)
		return nil
	})
	if err != nil {
		return pos, err
	}
	pos += uint64(len(m.Data))
	if fold == nil {
		r.pos = pos
	}
	return pos, nil
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

// Backend decorates the primary's serving backend with a Watermark: a
// fresh read of the map's commit clock, which by the publish-order
// argument in sender bounds every commit a client has seen a response
// for.
func (p *Primary) Backend(be server.Backend) server.Backend {
	return &primaryBackend{Backend: be, clock: p.clock}
}

type primaryBackend struct {
	server.Backend
	clock *stm.Clock
}

// Watermark implements server.Watermarker.
func (b *primaryBackend) Watermark() uint64 { return b.clock.Read() }
