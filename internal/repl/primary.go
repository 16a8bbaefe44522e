package repl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/persist"
	"repro/internal/wire"
	"repro/skiphash"
)

// PrimaryConfig configures the primary-side WAL streamer. Snapshot and
// ClockRead are required; the rest defaults sensibly.
type PrimaryConfig struct {
	// Snapshot iterates the primary map in chunked consistent reads
	// (MapSnapshot of the map being replicated), each chunk an all-put
	// op list in the WAL's encoding; it feeds a follower's full sync.
	Snapshot func(chunkSize int, emit func(stamp uint64, count int, ops []byte) error) error
	// ClockRead returns a fresh commit-clock read. CaughtUp and
	// Heartbeat stamps come from it; see the ordering rule in sender().
	ClockRead func() uint64
	// RingBytes bounds the in-memory record ring buffering the log tail
	// for followers. A follower that falls behind the ring is cut off
	// and resyncs from a snapshot. Default 32 MiB.
	RingBytes int
	// Logf, when set, receives per-follower diagnostics.
	Logf func(format string, args ...any)
}

// MapSnapshot adapts m's SnapshotChunks to PrimaryConfig.Snapshot: each
// chunk's pairs are encoded as puts (persist.AppendPut) into one buffer
// reused across chunks (emit must not retain it).
func MapSnapshot(m *skiphash.Map[int64, int64]) func(chunkSize int, emit func(stamp uint64, count int, ops []byte) error) error {
	ic := persist.Int64Codec()
	return func(chunkSize int, emit func(stamp uint64, count int, ops []byte) error) error {
		var ops []byte
		return m.SnapshotChunks(chunkSize, func(stamp uint64, pairs []skiphash.Pair[int64, int64]) error {
			ops = ops[:0]
			for _, p := range pairs {
				ops = persist.AppendPut(ops, ic, ic, p.Key, p.Val)
			}
			return emit(stamp, len(pairs), ops)
		})
	}
}

func (c PrimaryConfig) withDefaults() PrimaryConfig {
	if c.RingBytes == 0 {
		c.RingBytes = 32 << 20
	}
	return c
}

const (
	// snapshotChunk is the pair count per snapshot chunk of a full sync.
	snapshotChunk = 512
	// heartbeatEvery is the idle watermark cadence.
	heartbeatEvery = 250 * time.Millisecond
)

// record is one tapped WAL record in the ring.
type record struct {
	seq   uint64
	stamp uint64
	count int
	ops   []byte
}

// Primary tails the local WAL into a bounded ring and serves it to
// followers. Wire it to the engine with Store.TapWAL(p.Append).
type Primary struct {
	cfg   PrimaryConfig
	epoch uint64

	mu        sync.Mutex
	ring      []record
	ringBytes int
	nextSeq   uint64 // seq the next appended record receives; first is 1
	subs      map[*subscriber]struct{}
	lns       map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	resyncs   uint64 // full resyncs served to followers
	wg        sync.WaitGroup
}

// PrimaryStats is an observability snapshot of the streamer.
type PrimaryStats struct {
	// LastSeq is the newest record sequence appended to the ring (0
	// before the first append); the stream position.
	LastSeq uint64
	// Followers counts live follower subscriptions (connections past
	// their snapshot phase).
	Followers int
	// Resyncs counts full resyncs served (snapshot + tail handshakes).
	Resyncs uint64
}

// Stats returns the streamer's counters.
func (p *Primary) Stats() PrimaryStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PrimaryStats{
		LastSeq:   p.nextSeq - 1,
		Followers: len(p.subs),
		Resyncs:   p.resyncs,
	}
}

// subscriber wakes one follower sender when records arrive.
type subscriber struct{ kick chan struct{} }

// NewPrimary creates a streamer. The epoch — unique per primary
// incarnation — is drawn from the wall clock, so a primary that
// crashed (possibly shedding a torn WAL tail in recovery) never
// tail-feeds followers that may have applied the records the repair
// discarded: the epoch mismatch forces them through a full resync.
func NewPrimary(cfg PrimaryConfig) *Primary {
	return &Primary{
		cfg:     cfg.withDefaults(),
		epoch:   uint64(time.Now().UnixNano()),
		nextSeq: 1,
		subs:    make(map[*subscriber]struct{}),
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Epoch identifies this primary incarnation.
func (p *Primary) Epoch() uint64 { return p.epoch }

// Append feeds one WAL record into the ring. It is the WAL tap target:
// it runs at the STM publish point with the committing transaction's
// orecs held, so it copies ops and never blocks (subscriber kicks are
// non-blocking sends).
func (p *Primary) Append(stamp uint64, count int, ops []byte) {
	rec := record{stamp: stamp, count: count, ops: append([]byte(nil), ops...)}
	p.mu.Lock()
	rec.seq = p.nextSeq
	p.nextSeq++
	p.ring = append(p.ring, rec)
	p.ringBytes += len(rec.ops) + 32
	for p.ringBytes > p.cfg.RingBytes && len(p.ring) > 1 {
		p.ringBytes -= len(p.ring[0].ops) + 32
		p.ring[0].ops = nil
		p.ring = p.ring[1:]
	}
	for s := range p.subs {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	p.mu.Unlock()
}

// baseSeq is the oldest seq still in the ring (nextSeq when empty).
// Callers hold p.mu.
func (p *Primary) baseSeqLocked() uint64 {
	if len(p.ring) == 0 {
		return p.nextSeq
	}
	return p.ring[0].seq
}

// Serve accepts follower connections on ln until it closes (Shutdown)
// or fails.
func (p *Primary) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return errors.New("repl: primary is shut down")
	}
	p.lns[ln] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.lns, ln)
		p.mu.Unlock()
		ln.Close()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			nc.Close()
			return nil
		}
		p.conns[nc] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.wg.Done()
			err := p.sender(nc)
			p.mu.Lock()
			delete(p.conns, nc)
			p.mu.Unlock()
			nc.Close()
			if err != nil && !errors.Is(err, io.EOF) && p.cfg.Logf != nil {
				p.cfg.Logf("repl: follower %s: %v", nc.RemoteAddr(), err)
			}
		}()
	}
}

// DropFollowers closes every follower connection while the listeners
// keep serving; followers redial and resume from their last applied
// seq (a ring tail replay, no snapshot). Fault-injection surface for
// tests and skipstress.
func (p *Primary) DropFollowers() {
	p.mu.Lock()
	for nc := range p.conns {
		nc.Close()
	}
	p.mu.Unlock()
}

// Shutdown closes listeners and follower connections and waits for the
// senders to exit. The ring (and Append) keep working so a Shutdown
// for failover does not disturb the primary map.
func (p *Primary) Shutdown() {
	p.mu.Lock()
	p.closed = true
	for ln := range p.lns {
		ln.Close()
	}
	for nc := range p.conns {
		nc.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// sender drives one follower: handshake, catch-up, live tail.
func (p *Primary) sender(nc net.Conn) error {
	fr := wire.NewFrameReader(nc, wire.MaxRequestPayload)
	payload, err := fr.Next()
	if err != nil {
		return err
	}
	follow, err := wire.ParseReplMsg(payload)
	if err != nil {
		return err
	}
	if follow.Op != wire.OpFollow {
		return fmt.Errorf("expected Follow, got %s", follow.Op)
	}

	// Admission: tail from follow.Seq+1 when the follower is from this
	// epoch and the tail is still ringed; otherwise full resync. The
	// full-sync cursor is captured under the ring lock BEFORE any
	// snapshot chunk is read, so every record with seq < cursor is
	// fully reflected in the chunks (its map publish happened before
	// the chunk transactions started) and every record >= cursor is
	// streamed — the replica folds chunks and tail together exactly as
	// recovery folds a snapshot and its log (persist.Fold), which
	// absorbs the overlap.
	p.mu.Lock()
	full := follow.Epoch != p.epoch || follow.Seq+1 < p.baseSeqLocked() || follow.Seq >= p.nextSeq
	cursor := follow.Seq + 1
	if full {
		cursor = p.nextSeq
		p.resyncs++
	}
	p.mu.Unlock()

	var buf []byte
	send := func(m *wire.ReplMsg) error {
		buf = wire.AppendReplMsg(buf[:0], m)
		_, werr := nc.Write(buf)
		return werr
	}
	if err := send(&wire.ReplMsg{Op: wire.OpFollow, Epoch: p.epoch, Seq: cursor - 1, Full: full}); err != nil {
		return err
	}
	if full {
		err := p.cfg.Snapshot(snapshotChunk, func(stamp uint64, count int, ops []byte) error {
			return send(&wire.ReplMsg{Op: wire.OpSnapChunk, Stamp: stamp, Count: uint64(count), Ops: ops})
		})
		if err != nil {
			return fmt.Errorf("snapshot stream: %w", err)
		}
	}

	sub := &subscriber{kick: make(chan struct{}, 1)}
	p.mu.Lock()
	p.subs[sub] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.subs, sub)
		p.mu.Unlock()
	}()

	// Catch-up: stream the tail up to a sync target, then declare the
	// follower caught up at stamp H. H is read BEFORE the target is
	// captured: a record that misses the capture appended after H was
	// read, so any primary Watermark() taken after that record's commit
	// response reads >= H and the replica's strict barrier (watermark
	// strictly above the requested stamp) correctly refuses until the
	// record arrives.
	caughtUp := p.cfg.ClockRead()
	p.mu.Lock()
	syncTarget := p.nextSeq
	p.mu.Unlock()
	var cerr error
	cursor, cerr = p.stream(send, cursor, syncTarget)
	if cerr != nil {
		return cerr
	}
	if err := send(&wire.ReplMsg{Op: wire.OpCaughtUp, Stamp: caughtUp}); err != nil {
		return err
	}

	// Live tail. Heartbeats follow the same rule: the stamp is read
	// before the drained check, so a heartbeat never advertises a
	// watermark covering a record it did not stream first.
	hb := time.NewTimer(heartbeatEvery)
	defer hb.Stop()
	for {
		beat := p.cfg.ClockRead()
		p.mu.Lock()
		target := p.nextSeq
		p.mu.Unlock()
		if cursor < target {
			var serr error
			cursor, serr = p.stream(send, cursor, target)
			if serr != nil {
				return serr
			}
			continue
		}
		if err := send(&wire.ReplMsg{Op: wire.OpHeartbeat, Stamp: beat}); err != nil {
			return err
		}
		if !hb.Stop() {
			select {
			case <-hb.C:
			default:
			}
		}
		hb.Reset(heartbeatEvery)
		select {
		case <-sub.kick:
		case <-hb.C:
		}
	}
}

// stream writes ring records [cursor, target) to the follower,
// returning the new cursor. A cursor the ring has already evicted
// means the follower fell behind the ring budget: the connection is
// cut and the follower resyncs from a snapshot on redial.
func (p *Primary) stream(send func(*wire.ReplMsg) error, cursor, target uint64) (uint64, error) {
	var batch []record
	for cursor < target {
		p.mu.Lock()
		base := p.baseSeqLocked()
		if cursor < base {
			p.mu.Unlock()
			return cursor, fmt.Errorf("follower at seq %d fell behind ring base %d", cursor, base)
		}
		end := target
		if top := p.nextSeq; end > top {
			end = top
		}
		batch = append(batch[:0], p.ring[cursor-base:end-base]...)
		p.mu.Unlock()
		for i := range batch {
			r := &batch[i]
			m := wire.ReplMsg{Op: wire.OpWalRecord, Seq: r.seq, Stamp: r.stamp, Count: uint64(r.count), Ops: r.ops}
			if err := send(&m); err != nil {
				return cursor, err
			}
			cursor = r.seq + 1
		}
	}
	return cursor, nil
}
