package repl

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/stm"
	"repro/internal/wire"
	"repro/skiphash"
)

const (
	// heartbeatEvery is the idle watermark cadence.
	heartbeatEvery = 250 * time.Millisecond
	// runBytes bounds the frames one WalRecord carries (a longer frame
	// travels alone).
	runBytes = 64 << 10
)

// Primary streams a durable map's write-ahead log to followers. It
// has no listener of its own: a server whose namespace-0 backend is
// Backend's hands it every connection that sends Follow.
type Primary struct {
	epoch uint64
	m     *skiphash.Map[int64, int64]
	st    *persist.Store[int64, int64]
	// clock is m's commit clock. Heartbeat stamps are fresh reads of it;
	// see the ordering rule in sender().
	clock *stm.Clock

	followers atomic.Int64  // senders past their snapshot phase
	resyncs   atomic.Uint64 // full resyncs served to followers
}

// PrimaryStats is an observability snapshot of the streamer.
type PrimaryStats struct {
	// Followers counts live follower subscriptions (connections past
	// their snapshot phase).
	Followers int
	// Resyncs counts full resyncs served (snapshot + tail handshakes).
	Resyncs uint64
}

// Stats returns the streamer's counters.
func (p *Primary) Stats() PrimaryStats {
	return PrimaryStats{Followers: int(p.followers.Load()), Resyncs: p.resyncs.Load()}
}

// NewPrimary serves the write-ahead log of m, which must be durable
// (skiphash.Open with Durability), installing nothing on its commit
// path; any number of primaries may serve one map. The epoch — unique
// per primary incarnation — is drawn from the wall clock, so a primary
// that crashed (possibly shedding a torn WAL tail in recovery) never
// tail-feeds followers that may have applied the records the repair
// discarded: the epoch mismatch forces them through a full resync.
func NewPrimary(m *skiphash.Map[int64, int64]) (*Primary, error) {
	st, ok := m.Persister().(*persist.Store[int64, int64])
	if !ok {
		return nil, errors.New("repl: primary map has no write-ahead log")
	}
	return &Primary{
		epoch: uint64(time.Now().UnixNano()),
		m:     m,
		st:    st,
		clock: m.Runtime().Clock(),
	}, nil
}

// Epoch identifies this primary incarnation.
func (p *Primary) Epoch() uint64 { return p.epoch }

// sender drives one follower that asked to resume at (epoch, pos):
// stream header, the snapshot of a full resync, then bursts of log
// frames, each ended by a Heartbeat.
func (p *Primary) sender(nc net.Conn, epoch, pos uint64) error {
	// Admission: tail from pos when the follower is from this
	// epoch and the log still holds that position; otherwise full
	// resync. The full-sync cursor is the log's end, read under the WAL
	// mutex BEFORE any snapshot chunk is read, so every record below it
	// is fully reflected in the chunks (its map publish happened before
	// the chunk transactions started) and every record from it on is
	// streamed — the replica lays chunks and tail down as a snapshot
	// file and its log, and recovery's fold absorbs the overlap.
	rd := p.st.NewLogReader()
	defer rd.Close()
	cursor := int64(pos)
	full := epoch != p.epoch || !rd.Has(cursor)
	if full {
		cursor = rd.End()
		p.resyncs.Add(1)
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

	p.followers.Add(1)
	defer p.followers.Add(-1)

	// Every burst streams the log's frames up to an end captured after
	// reading stamp H, as WalRecord runs, then sends a Heartbeat carrying
	// H. A record that misses the capture appended after H was read, so
	// any primary Watermark() taken after that record's commit response
	// reads >= H and the replica's strict barrier (watermark strictly
	// above the requested stamp) correctly refuses until the record
	// arrives. The first burst is catch-up, and its Heartbeat ends it; a
	// continuous writer cannot stretch it past the end captured then. A
	// cursor the log no longer holds (persist.ErrTruncated) cuts the
	// connection; the follower's redial then finds its position gone and
	// takes a full resync. An append, not a flush, wakes the sender.
	tick := time.NewTicker(heartbeatEvery)
	defer tick.Stop()
	var run []byte
	for {
		beat := p.clock.Read()
		for target := rd.End(); cursor < target; cursor += int64(len(run)) {
			var err error
			if run, err = rd.Read(run[:0], cursor, runBytes); err != nil {
				return fmt.Errorf("log position %d: %w", cursor, err)
			}
			if err := send(&wire.ReplMsg{Op: wire.OpWalRecord, Seq: uint64(cursor), Data: run}); err != nil {
				return err
			}
		}
		if err := send(&wire.ReplMsg{Op: wire.OpHeartbeat, Stamp: beat}); err != nil {
			return err
		}
		select {
		case <-rd.Wait(cursor):
		case <-tick.C:
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
