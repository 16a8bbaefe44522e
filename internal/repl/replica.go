package repl

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/skiphash"
)

// ReplicaConfig configures a live replica.
type ReplicaConfig struct {
	// Addr is the primary's serving address (host:port, TCP): the
	// replica sends Follow there on a connection of its own.
	Addr string
	// Map configures the replica's map, a durable one: Durability is
	// required, and its Dir is an ordinary skiphash.Open directory that
	// also holds the replica's resume position, so skiphash.Open reopens
	// a promoted replica as it is. The map's commit clock is raised to
	// every applied stamp.
	Map skiphash.Config
	// RedialEvery paces reconnect attempts. Default 100ms.
	RedialEvery time.Duration
	// Logf, when set, receives reconnect/apply diagnostics.
	Logf func(format string, args ...any)
}

// posFile names the replica's resume position in its directory: the
// primary epoch and log position its map reflects, in decimal. It is
// written only once a Sync covers every record up to that position,
// and it marks the directory as worth serving.
const posFile = "replica.pos"

// dialTimeout bounds one dial of the primary.
const dialTimeout = 2 * time.Second

// Replica follows a primary's WAL stream into a durable map. The map
// serves read-only traffic (through Backend) at the advertised
// watermark until Promote makes it writable.
type Replica struct {
	cfg ReplicaConfig
	// dir is the map's directory and fs the filesystem its map works on.
	dir string
	fs  persist.FS
	// be serves the current map; a full resync swaps in a new one.
	be atomic.Pointer[server.MapBackend[int64, int64]]

	// epoch and pos name the log position the map reflects: the end of
	// the last frame applied. A full resync moves them only once its map
	// is swapped in. saved is the position posFile holds, written at
	// savedAt.
	epoch     uint64
	pos       uint64
	saved     [2]uint64
	savedAt   time.Time
	watermark atomic.Uint64
	promoted  atomic.Bool

	// Observability counters (see Stats). primStamp is the freshest
	// stamp the primary has advertised since the last full resync
	// began, updated at message receipt — before apply — while
	// watermark advances after, so primStamp - watermark is the
	// replica's instantaneous lag.
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

// NewReplica opens the replica's directory and starts following
// cfg.Addr. A directory with a resume position is recovered and resumes
// from it; one without holds nothing worth serving, so its log and
// snapshots are removed and the replica starts empty.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Map.Durability == nil {
		return nil, errors.New("repl: a replica needs ReplicaConfig.Map.Durability")
	}
	if cfg.RedialEvery == 0 {
		cfg.RedialEvery = 100 * time.Millisecond
	}
	r := &Replica{
		cfg:     cfg,
		dir:     cfg.Map.Durability.Dir,
		fs:      persist.FSOf(*cfg.Map.Durability),
		ready:   make(chan struct{}),
		stopped: make(chan struct{}),
		done:    make(chan struct{}),
	}
	b, err := r.fs.ReadFile(r.posPath())
	if errors.Is(err, fs.ErrNotExist) {
		err = persist.RemoveLog(*cfg.Map.Durability)
	} else if err == nil {
		if _, err = fmt.Sscan(string(b), &r.epoch, &r.pos); err != nil {
			err = fmt.Errorf("repl: resume position %s: %w", r.posPath(), err)
		}
		r.saved = [2]uint64{r.epoch, r.pos}
	}
	if err != nil {
		return nil, err
	}
	m, err := r.open()
	if err != nil {
		return nil, err
	}
	// Every map a full resync swaps in runs on this map's runtime, so
	// its counters and commit observer carry over.
	r.cfg.Map = core.OnRuntime(r.cfg.Map, m.Runtime())
	r.be.Store(server.NewShardedBackend(m))
	go r.run()
	return r, nil
}

func (r *Replica) posPath() string { return filepath.Join(r.dir, posFile) }

func (r *Replica) open() (*skiphash.Map[int64, int64], error) {
	return skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, r.cfg.Map,
		skiphash.Int64Codec(), skiphash.Int64Codec())
}

// Map returns the replica's current map (reads only until promotion).
func (r *Replica) Map() *skiphash.Map[int64, int64] { return r.be.Load().Map }

// Watermark is the replica's applied commit-stamp watermark: every
// primary commit with stamp <= a value this returned is applied here,
// provided the caller observed its stamp through the same lineage's
// Watermark (see the package contract). It is 0 while a full resync
// runs.
func (r *Replica) Watermark() uint64 { return r.watermark.Load() }

// WaitReady blocks until the replica has caught up once, at the first
// Heartbeat of a stream (or ctx ends).
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
// node's commits extend the dead primary's order. The map stays
// durable; its directory drops the resume position, which its own
// writes no longer match, and skiphash.Open reopens it as it is. Promote
// refuses while the map's log is closed.
func (r *Replica) Promote() error {
	r.stop()
	if err := r.Map().Sync(); err != nil {
		return fmt.Errorf("repl: promote: %w", err)
	}
	if err := r.fs.Remove(r.dir, posFile); err != nil {
		return err
	}
	r.promoted.Store(true)
	return nil
}

// Close stops following and closes the map. Its log is forced durable,
// and the error reports whatever kept the map's commits from reaching
// the disk.
func (r *Replica) Close() error {
	r.stop()
	return r.be.Load().Close()
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
		nc, err := net.DialTimeout("tcp", r.cfg.Addr, dialTimeout)
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

// runConn speaks one follower connection end to end: a Follow request
// on a serving connection, its response, then the stream.
func (r *Replica) runConn(nc net.Conn) error {
	frame := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpFollow, Key: int64(r.epoch), Val: int64(r.pos)})
	if _, err := nc.Write(frame); err != nil {
		return err
	}
	fr := wire.NewFrameReader(nc, wire.MaxResponsePayload)
	payload, err := fr.Next()
	if err != nil {
		return err
	}
	resp, err := wire.ParseResponse(payload)
	if err != nil {
		return err
	}
	if err := resp.Err(); err != nil {
		return fmt.Errorf("follow: %w", err)
	}
	if payload, err = fr.Next(); err != nil {
		return err
	}
	hdr, err := wire.ParseReplMsg(payload)
	if err != nil {
		return err
	}
	if hdr.Op != wire.OpFollow {
		return fmt.Errorf("expected Follow header, got %s", hdr.Op)
	}
	// A full resync lands on disk while the map keeps serving its old
	// state: a Restore checks the streamed snapshot file and the log
	// after it as recovery would and stages them, and at the first
	// Heartbeat the map recovery opens from them is swapped in.
	// Meanwhile the watermark reads 0, so barriered reads go to the
	// primary, and the primary stamp restarts with the new lineage.
	var rs *persist.Restore
	pos := r.pos
	if hdr.Full {
		r.watermark.Store(0)
		r.primStamp.Store(0)
		r.resyncs.Add(1)
		if r.epoch != 0 && hdr.Epoch != r.epoch {
			r.epochSwaps.Add(1)
		}
		if rs, err = persist.NewRestore(*r.cfg.Map.Durability); err != nil {
			return err
		}
		defer rs.Close()
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
		switch m.Op {
		case wire.OpSnapChunk:
			if rs == nil {
				return errors.New("snapshot bytes outside full sync")
			}
			if err := rs.StageSnapshot(m.Data); err != nil {
				return err
			}
		case wire.OpWalRecord:
			if pos, err = r.applyRun(rs, pos, &m); err != nil {
				return err
			}
		case wire.OpHeartbeat:
			r.raisePrimStamp(m.Stamp)
			swapped := rs != nil
			if swapped {
				if err := r.swap(rs, hdr.Epoch, pos); err != nil {
					return fmt.Errorf("full resync: %w", err)
				}
				rs = nil
			}
			r.advance(m.Stamp)
			// The primary heartbeats after every burst, under load many
			// times a period, so a heartbeat saves the position at most
			// once per heartbeat period; the one that ends a full resync
			// saves at once.
			if swapped || time.Since(r.savedAt) >= heartbeatEvery {
				if err := r.save(); err != nil {
					return err
				}
			}
			r.readyOnce.Do(func() { close(r.ready) })
		default:
			return fmt.Errorf("unexpected %s on replication stream", m.Op)
		}
	}
}

// swap makes the map recovery opens from rs, a staged full resync, the
// replica's map at (epoch, pos); the caller then saves that position.
// Until then a crash leaves either the old log with its position or no
// position at all, and a restart starts over from an empty directory.
// The old map keeps serving reads until the new one is in place.
func (r *Replica) swap(rs *persist.Restore, epoch, pos uint64) error {
	if err := rs.Sync(); err != nil {
		return err
	}
	r.epoch, r.pos, r.saved = 0, 0, [2]uint64{}
	// The removal is on disk before Install removes a segment, so no
	// crash keeps the position over a partial log.
	if err := r.fs.Remove(r.dir, posFile); err != nil {
		return err
	}
	old := r.Map()
	old.Close()
	if err := rs.Install(); err != nil {
		return err
	}
	m, err := r.open()
	if err != nil {
		return err
	}
	r.be.Store(server.NewShardedBackend(m))
	r.epoch, r.pos = epoch, pos
	return nil
}

// save writes the position the map reflects to posFile, after a Sync
// covers every record up to it. A position that lags the log is safe:
// a record's ops are absolute puts and deletes, so replaying a suffix
// in order reaches the same state.
func (r *Replica) save() error {
	if r.saved == [2]uint64{r.epoch, r.pos} {
		return nil
	}
	err := r.Map().Sync()
	if err == nil {
		err = r.fs.WriteFile(r.posPath(), fmt.Appendf(nil, "%d %d\n", r.epoch, r.pos))
	}
	if err != nil {
		return fmt.Errorf("save resume position: %w", err)
	}
	r.saved, r.savedAt = [2]uint64{r.epoch, r.pos}, time.Now()
	return nil
}

// raisePrimStamp lifts the last-advertised primary stamp to s. The
// follower goroutine is its only writer.
func (r *Replica) raisePrimStamp(s uint64) {
	if s > r.primStamp.Load() {
		r.primStamp.Store(s)
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

// advance lifts the commit-clock floor, then the watermark, to s. The
// follower goroutine is the watermark's only writer.
func (r *Replica) advance(s uint64) {
	r.Map().Runtime().Clock().Raise(s)
	if s > r.watermark.Load() {
		r.watermark.Store(s)
	}
}

// applyRun takes one WalRecord, a run of WAL frames that must start at
// pos, the end of everything taken so far, and returns the position
// after it. Each frame passes recovery's own check (persist.WalkFrames)
// before its record is used: staged during a full resync, otherwise
// applied as one transaction on the map, whose own log records it, in
// stream order (commit order for any two records that could disagree
// about a key), lifting the watermark to its stamp. A refused run
// leaves pos where it was, so the primary resends it whole; reapplying
// a prefix of it is harmless. A record the map's own log refuses (the
// map was closed or crashed, or its log failed) is not applied, and
// fails the run.
func (r *Replica) applyRun(rs *persist.Restore, pos uint64, m *wire.ReplMsg) (uint64, error) {
	if m.Seq != pos {
		return pos, fmt.Errorf("log run at position %d, want %d", m.Seq, pos)
	}
	walk := persist.WalkFrames
	if rs != nil {
		walk = rs.StageFrames
	}
	ic := persist.Int64Codec()
	err := walk(m.Data, func(_ int64, stamp, count uint64, ops []byte) error {
		r.raisePrimStamp(stamp)
		if rs != nil {
			r.records.Add(1)
			return nil
		}
		err := r.Map().Atomic(func(op *skiphash.Txn[int64, int64]) error {
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
		r.records.Add(1)
		r.advance(stamp)
		return nil
	})
	if err != nil {
		return pos, err
	}
	pos += uint64(len(m.Data))
	if rs == nil {
		r.pos = pos
	}
	return pos, nil
}

// --- Serving backends ---------------------------------------------------

// Backend returns a server.Backend over the replica's current map: reads
// are served live, writes (and the durability surface) answer
// server.ErrReadOnly until promotion, and Close closes the replica. It
// implements server.Watermarker and server.Promoter, wiring OpWatermark
// and OpPromote.
func (r *Replica) Backend() server.Backend { return &replicaBackend{r: r} }

// replicaBackend resolves the current map on every call, so a full
// resync's swap takes effect on the next request.
type replicaBackend struct{ r *Replica }

func (b *replicaBackend) Atomic(group []wire.Request, resps []wire.Response) (uint64, error) {
	if !b.r.promoted.Load() {
		return 0, server.ErrReadOnly
	}
	return b.r.be.Load().Atomic(group, resps)
}

func (b *replicaBackend) Get(req *wire.Request, resp *wire.Response) { b.r.be.Load().Get(req, resp) }

func (b *replicaBackend) Range(req *wire.Request, resp *wire.Response, scratch *any) {
	b.r.be.Load().Range(req, resp, scratch)
}

func (b *replicaBackend) Durable() bool { return b.r.be.Load().Durable() }

func (b *replicaBackend) Sync() error {
	if !b.r.promoted.Load() {
		return server.ErrReadOnly
	}
	return b.r.be.Load().Sync()
}

func (b *replicaBackend) Snapshot() error {
	if !b.r.promoted.Load() {
		return server.ErrReadOnly
	}
	return b.r.be.Load().Snapshot()
}

func (b *replicaBackend) Close() error { return b.r.Close() }

// Watermark implements server.Watermarker. A promoted node commits
// above its applied watermark, so it answers a fresh read of its
// clock, as a primary does.
func (b *replicaBackend) Watermark() uint64 {
	if b.r.promoted.Load() {
		return b.r.Map().Runtime().Clock().Read()
	}
	return b.r.Watermark()
}

// Promote implements server.Promoter.
func (b *replicaBackend) Promote() error { return b.r.Promote() }

// Backend decorates the primary's serving backend with a Watermark — a
// fresh read of the map's commit clock, which by the publish-order
// argument in sender bounds every commit a client has seen a response
// for — and with the log stream: as a server's namespace 0 it hands
// every Follow connection to the primary.
func (p *Primary) Backend(be server.Backend) server.Backend {
	return &primaryBackend{Backend: be, p: p}
}

type primaryBackend struct {
	server.Backend
	p *Primary
}

// Watermark implements server.Watermarker.
func (b *primaryBackend) Watermark() uint64 { return b.p.clock.Read() }

// Stream implements server.Streamer.
func (b *primaryBackend) Stream(nc net.Conn, epoch, pos uint64) error {
	return b.p.sender(nc, epoch, pos)
}
