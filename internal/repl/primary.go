package repl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/persist"
	"repro/internal/stm"
	"repro/internal/wire"
	"repro/skiphash"
)

// PrimaryConfig configures the primary-side WAL streamer.
type PrimaryConfig struct {
	// Logf, when set, receives per-follower diagnostics.
	Logf func(format string, args ...any)
}

const (
	// heartbeatEvery is the idle watermark cadence.
	heartbeatEvery = 250 * time.Millisecond
	// runBytes bounds the frames one WalRecord carries (a longer frame
	// travels alone).
	runBytes = 64 << 10
)

// Primary serves a durable map's write-ahead log to followers.
type Primary struct {
	cfg   PrimaryConfig
	epoch uint64
	m     *skiphash.Map[int64, int64]
	st    *persist.Store[int64, int64]
	// clock is m's commit clock. CaughtUp and Heartbeat stamps are fresh
	// reads of it; see the ordering rule in sender().
	clock *stm.Clock

	mu        sync.Mutex
	followers int // senders past their snapshot phase
	lns       map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	resyncs   uint64 // full resyncs served to followers
	wg        sync.WaitGroup
}

// PrimaryStats is an observability snapshot of the streamer.
type PrimaryStats struct {
	// Position is the log's end position: WAL bytes appended since the
	// store opened.
	Position int64
	// Followers counts live follower subscriptions (connections past
	// their snapshot phase).
	Followers int
	// Resyncs counts full resyncs served (snapshot + tail handshakes).
	Resyncs uint64
}

// Stats returns the streamer's counters.
func (p *Primary) Stats() PrimaryStats {
	pos := p.st.Stats().AppendedBytes
	p.mu.Lock()
	defer p.mu.Unlock()
	return PrimaryStats{
		Position:  pos,
		Followers: p.followers,
		Resyncs:   p.resyncs,
	}
}

// NewPrimary serves the write-ahead log of m, which must be durable
// (skiphash.Open with Durability), installing nothing on its commit
// path; any number of primaries may serve one map. The epoch — unique
// per primary incarnation — is drawn from the wall clock, so a primary
// that crashed (possibly shedding a torn WAL tail in recovery) never
// tail-feeds followers that may have applied the records the repair
// discarded: the epoch mismatch forces them through a full resync.
func NewPrimary(m *skiphash.Map[int64, int64], cfg PrimaryConfig) (*Primary, error) {
	st, ok := m.Persister().(*persist.Store[int64, int64])
	if !ok {
		return nil, errors.New("repl: primary map has no write-ahead log")
	}
	return &Primary{
		cfg:   cfg,
		epoch: uint64(time.Now().UnixNano()),
		m:     m,
		st:    st,
		clock: m.Runtime().Clock(),
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}, nil
}

// Epoch identifies this primary incarnation.
func (p *Primary) Epoch() uint64 { return p.epoch }

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
// keep serving; followers redial and resume from their log position,
// with no snapshot unless one has truncated it. Fault-injection surface
// for tests and skipstress.
func (p *Primary) DropFollowers() {
	p.mu.Lock()
	for nc := range p.conns {
		nc.Close()
	}
	p.mu.Unlock()
}

// Shutdown closes listeners and follower connections and waits for the
// senders to exit, leaving the map and its log untouched.
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

	// Admission: tail from follow.Seq when the follower is from this
	// epoch and the log still holds that position; otherwise full
	// resync. The full-sync cursor is the log's end, read under the WAL
	// mutex BEFORE any snapshot chunk is read, so every record below it
	// is fully reflected in the chunks (its map publish happened before
	// the chunk transactions started) and every record from it on is
	// streamed — the replica folds chunks and tail together exactly as
	// recovery folds a snapshot and its log (persist.Fold), which
	// absorbs the overlap.
	rd := p.st.NewLogReader()
	defer rd.Close()
	cursor := int64(follow.Seq)
	full := follow.Epoch != p.epoch || !rd.Has(cursor)
	if full {
		cursor = rd.End()
		p.mu.Lock()
		p.resyncs++
		p.mu.Unlock()
	}

	var buf []byte
	send := func(m *wire.ReplMsg) error {
		buf = wire.AppendReplMsg(buf[:0], m)
		_, werr := nc.Write(buf)
		return werr
	}
	if err := send(&wire.ReplMsg{Op: wire.OpFollow, Epoch: p.epoch, Seq: uint64(cursor), Full: full}); err != nil {
		return err
	}
	if full {
		// The snapshot travels as the bytes of a snapshot file, encoded
		// as Store.Snapshot encodes its file, one frame per SnapChunk.
		ic := persist.Int64Codec()
		if _, _, err := persist.WriteSnapshot(chunkWriter(send), p.m.SnapshotChunks, ic, ic); err != nil {
			return fmt.Errorf("snapshot stream: %w", err)
		}
	}

	p.mu.Lock()
	p.followers++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.followers--
		p.mu.Unlock()
	}()

	// stream sends the log's frames [cursor, target) as WalRecord runs.
	// A cursor the log no longer holds (persist.ErrTruncated) cuts the
	// connection; the follower's redial then finds its position gone
	// and takes a full resync.
	var run []byte
	stream := func(target int64) error {
		for cursor < target {
			var err error
			if run, err = rd.Read(run[:0], cursor, runBytes); err != nil {
				return fmt.Errorf("log position %d: %w", cursor, err)
			}
			if err := send(&wire.ReplMsg{Op: wire.OpWalRecord, Seq: uint64(cursor), Data: run}); err != nil {
				return err
			}
			cursor += int64(len(run))
		}
		return nil
	}
	// Catch-up: stream the log up to a sync target, then declare the
	// follower caught up at stamp H. H is read BEFORE the target is
	// captured: a record that misses the capture appended after H was
	// read, so any primary Watermark() taken after that record's commit
	// response reads >= H and the replica's strict barrier (watermark
	// strictly above the requested stamp) correctly refuses until the
	// record arrives.
	caughtUp := p.clock.Read()
	if err := stream(rd.End()); err != nil {
		return err
	}
	if err := send(&wire.ReplMsg{Op: wire.OpCaughtUp, Stamp: caughtUp}); err != nil {
		return err
	}

	// Live tail. Heartbeats follow the same rule: the stamp is read
	// before the drained check, so a heartbeat never advertises a
	// watermark covering a record it did not stream first. An append,
	// not a flush, wakes the sender.
	hb := time.NewTimer(heartbeatEvery)
	defer hb.Stop()
	for {
		beat := p.clock.Read()
		if target := rd.End(); cursor < target {
			if err := stream(target); err != nil {
				return err
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
		case <-rd.Wait(cursor):
		case <-hb.C:
		}
	}
}

// chunkWriter sends each Write as one SnapChunk message; the message
// has been copied out of p when it returns.
type chunkWriter func(m *wire.ReplMsg) error

func (send chunkWriter) Write(p []byte) (int, error) {
	if err := send(&wire.ReplMsg{Op: wire.OpSnapChunk, Data: p}); err != nil {
		return 0, err
	}
	return len(p), nil
}
