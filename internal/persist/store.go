package persist

import (
	"bufio"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/stm"
)

// Store is the durability engine of one map: it captures the logical
// effect of committed transactions into the WAL, writes background
// snapshots, and exposes the recovered state it was opened from.
//
// Store implements the core package's OpLogger (LogPut/LogDel) and
// Persister (Snapshot/Sync/Close/SimulateCrash/Err) hook interfaces
// structurally; core stays free of any persist dependency in its data
// path.
type Store[K comparable, V any] struct {
	opts Options
	kc   Codec[K]
	vc   Codec[V]
	w    *wal

	recovered RecoverInfo
	pairs     []KV[K, V] // handed out once by TakeRecovered

	bufPool sync.Pool

	// snapshotter state.
	source   SnapshotSource[K, V]
	snapMu   sync.Mutex // serializes snapshot writes
	kickSnap chan struct{}
	stopSnap chan struct{}
	snapDone chan struct{}
	started  bool

	mu           sync.Mutex
	lastSnapErr  error
	snapshots    uint64
	snapsEntries uint64

	// instrSnap, when set via Instrument, observes each snapshot
	// attempt's wall-clock duration in nanoseconds.
	instrSnap *obs.Histogram
}

// Instrument installs latency histograms on the engine's slow paths:
// fsync duration and records-per-flush (observed by the WAL flusher,
// never on the append path) and snapshot duration. Any histogram may
// be nil to leave that site uninstrumented. Call before serving
// traffic; the fields are read under the engine's internal locks.
func (s *Store[K, V]) Instrument(fsyncLatency, batchRecords, snapDuration *obs.Histogram) {
	s.w.mu.Lock()
	s.w.instrFsync = fsyncLatency
	s.w.instrBatch = batchRecords
	s.w.mu.Unlock()
	s.snapMu.Lock()
	s.instrSnap = snapDuration
	s.snapMu.Unlock()
}

// Open recovers a durability directory and returns a store ready to log
// new operations. The store never appends to a segment an earlier
// incarnation wrote: recovery fsyncs the newest old segment, the first
// flush starts a fresh one, and the segments the loaded snapshot covers
// are deleted before Open returns.
// less is the map's key order: recovery sorts by it, and
// TakeRecovered hands the pairs out strictly ascending by it. The
// recovered pairs must be loaded into the map before the store is
// attached as its operation logger, and the map's clock must be floored
// above Recovered().MaxStamp.
func Open[K comparable, V any](opts Options, less func(a, b K) bool, kc Codec[K], vc Codec[V]) (*Store[K, V], error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("persist: Options.Dir is required")
	}
	if less == nil {
		return nil, fmt.Errorf("persist: a key order (less) is required")
	}
	if kc.Append == nil || kc.Read == nil || vc.Append == nil || vc.Read == nil {
		return nil, fmt.Errorf("persist: key and value codecs are required")
	}
	opts = opts.withDefaults()
	pairs, info, st, err := recoverDir[K, V](opts.fs, opts.Dir, less, kc, vc)
	if err != nil {
		return nil, err
	}
	s := &Store[K, V]{
		opts:      opts,
		kc:        kc,
		vc:        vc,
		recovered: info,
		pairs:     pairs,
		kickSnap:  make(chan struct{}, 1),
		stopSnap:  make(chan struct{}),
		snapDone:  make(chan struct{}),
	}
	s.bufPool.New = func() any { return &txBuf{} }

	// Every recovered segment is sealed: this incarnation's first flush
	// starts a segment of its own, so no file mixes incarnations. The
	// segments the loaded snapshot covers go by the rule a snapshot
	// applies at run time, the newest included.
	s.w = newWAL(opts, st.maxSeq, st.segs)
	s.w.snapKick = func() {
		select {
		case s.kickSnap <- struct{}{}:
		default:
		}
	}
	s.w.truncateBelow(st.snapMin)
	// The kept segments' frames are log no snapshot covers yet: they
	// count toward SnapshotBytes as this incarnation's appends do, or a
	// store restarted more often than it logs SnapshotBytes would never
	// snapshot and its log would grow without bound.
	s.w.mu.Lock()
	for _, seg := range s.w.sealed {
		s.w.stats.sinceSnp += seg.n - int64(len(walMagic))
	}
	s.w.mu.Unlock()
	return s, nil
}

// Recovered reports what Open reconstructed.
func (s *Store[K, V]) Recovered() RecoverInfo { return s.recovered }

// TakeRecovered returns the recovered pairs exactly once, releasing the
// store's reference to them: one pair per live key, strictly ascending
// by the less Open was given — ready for a bulk load, as
// skiphash.Open does. The caller owns the slice.
func (s *Store[K, V]) TakeRecovered() []KV[K, V] {
	p := s.pairs
	s.pairs = nil
	return p
}

// Dir returns the durability directory.
func (s *Store[K, V]) Dir() string { return s.opts.Dir }

// txBuf accumulates one transaction attempt's logical ops, pre-encoded.
// It lives in the transaction's per-attempt local slot, so an aborted
// attempt's ops are dropped with the slot and a retry starts clean. A
// map owns its runtime and at most one store, so the slot holds at most
// this store's buffer.
type txBuf struct {
	ops   []byte
	count int
	lsn   int64
	err   error
}

// bufFor finds or installs this store's op buffer on the transaction,
// registering the publish/commit hooks on first use in the attempt: the
// store is the target of both and the buffer their payload, so logging a
// transaction allocates nothing once the pool is warm.
func (s *Store[K, V]) bufFor(tx *stm.Tx) *txBuf {
	if b, ok := tx.Local().(*txBuf); ok {
		return b
	}
	b := s.bufPool.Get().(*txBuf)
	b.count = 0
	b.ops = b.ops[:0]
	b.lsn = 0
	b.err = nil
	tx.SetLocal(b)
	tx.OnPublish(s, unsafe.Pointer(b))
	tx.OnCommit(s, unsafe.Pointer(b))
	return b
}

// Published appends the committing transaction's record to the WAL
// (implements stm.PublishHook; arg is the attempt's *txBuf). Orecs are
// still held: append order equals commit order for every conflicting
// transaction, making the WAL's file order a valid tiebreak for equal
// stamps.
func (s *Store[K, V]) Published(stamp uint64, arg unsafe.Pointer) {
	b := (*txBuf)(arg)
	b.lsn, b.err = s.w.appendRecord(stamp, b.count, b.ops)
}

// Committed waits out the group commit under FsyncAlways and recycles
// the buffer (implements stm.CommitHook; arg is the attempt's *txBuf).
func (s *Store[K, V]) Committed(arg unsafe.Pointer) {
	b := (*txBuf)(arg)
	if s.opts.Fsync == FsyncAlways && b.err == nil {
		// The wait's error is not returned to the operation: the
		// transaction has already committed in memory and cannot be
		// un-acknowledged. Every failure path is sticky engine state
		// that Err/Sync/Close report — I/O errors via w.err, and an
		// append rejected by a racing Close via the unlogged counter.
		s.w.waitDurable(b.lsn)
	}
	s.bufPool.Put(b)
}

// LogPut records that the transaction set k to v (implements the core
// OpLogger hook).
func (s *Store[K, V]) LogPut(tx *stm.Tx, k K, v V) {
	b := s.bufFor(tx)
	b.ops = append(b.ops, opPut)
	b.ops = s.kc.Append(b.ops, k)
	b.ops = s.vc.Append(b.ops, v)
	b.count++
}

// LogDel records that the transaction removed k.
func (s *Store[K, V]) LogDel(tx *stm.Tx, k K) {
	b := s.bufFor(tx)
	b.ops = append(b.ops, opDel)
	b.ops = s.kc.Append(b.ops, k)
	b.count++
}

// Start binds the snapshot source and launches the background
// snapshotter. It must be called after the recovered pairs have been
// loaded into the map.
func (s *Store[K, V]) Start(source SnapshotSource[K, V]) {
	s.source = source
	if s.started {
		return
	}
	s.started = true
	go s.snapshotter()
}

// snapshotter snapshots on each kick; the WAL kicks it once
// SnapshotBytes have accumulated since the last snapshot.
func (s *Store[K, V]) snapshotter() {
	defer close(s.snapDone)
	for {
		select {
		case <-s.stopSnap:
			return
		case <-s.kickSnap:
		}
		if err := s.Snapshot(); err != nil && !errors.Is(err, ErrClosed) {
			s.mu.Lock()
			s.lastSnapErr = err
			s.mu.Unlock()
		}
	}
}

// Snapshot writes a full snapshot now: the map is iterated in chunked
// consistent reads while writers proceed, the file is fsynced and
// atomically renamed, and WAL segments fully covered by it are
// truncated. Serialized with other snapshots; safe concurrent with
// appends.
func (s *Store[K, V]) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.source == nil {
		return fmt.Errorf("persist: no snapshot source bound (Start not called)")
	}
	if h := s.instrSnap; h != nil {
		t0 := time.Now()
		defer h.ObserveSince(t0)
	}
	s.w.mu.Lock()
	dead := s.w.closing || s.w.closed || s.w.crashed
	s.w.mu.Unlock()
	if dead {
		return ErrClosed
	}
	seq := s.w.nextFileSeq()
	dir := s.opts.Dir
	f, err := s.opts.fs.Stage(filepath.Join(dir, fmt.Sprintf("snap-%016x.tmp", seq)), filepath.Join(dir, snapName(seq)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	minStamp, total, err := WriteSnapshot(bw, s.source, s.kc, s.vc)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	// The chunks read committed in-memory state whose WAL records may
	// still sit in the append buffer (FsyncNone/Interval). A record that
	// straddles the snapshot — logged between two chunks, so one key's
	// chunk predates it and another's reflects it — must be durable
	// before the snapshot becomes the recovery source, or a crash would
	// recover the straddled update partially (breaking batch atomicity)
	// instead of losing it wholesale. Sync the WAL up through everything
	// the chunks could have observed before the rename publishes them.
	if err == nil {
		err = s.w.sync()
	}
	if err == nil {
		err = f.Publish()
	}
	if err != nil {
		f.Discard()
		return err
	}
	// The new snapshot supersedes every older one and every WAL segment
	// whose records all predate its earliest chunk.
	if st, err := scanDir(s.opts.fs, dir); err == nil {
		retireSnapshots(s.opts.fs, dir, st.snaps, seq)
	}
	s.w.truncateBelow(minStamp)
	s.w.resetSnapshotDebt()
	s.mu.Lock()
	s.snapshots++
	s.snapsEntries += total
	s.lastSnapErr = nil
	s.mu.Unlock()
	return nil
}

// Sync forces every logged operation to durable storage now, regardless
// of the fsync policy. A Sync that loses a race with Close or
// SimulateCrash returns ErrSyncRaced (which matches ErrClosed) and is
// counted in StoreStats.LateSyncs, never acknowledged as durable.
func (s *Store[K, V]) Sync() error { return s.w.sync() }

// Err returns the sticky background error, if any. Permanent, in
// precedence order: a WAL I/O failure, then unlogged commits (ops that
// committed in memory while the log was closing or closed — that
// divergence from disk never clears). When the log is healthy: the most
// recent background snapshot failure, cleared by the next snapshot that
// succeeds. This is the one probe that observes every way the engine
// can silently degrade.
func (s *Store[K, V]) Err() error {
	s.w.mu.Lock()
	werr := s.w.err
	if werr == nil {
		werr = s.w.unloggedErrLocked()
	}
	s.w.mu.Unlock()
	if werr != nil {
		return werr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSnapErr
}

// LogErr returns the log's sticky I/O error, set once a write or an
// fsync of a segment failed: from then on no record reaches the disk,
// so no write may be acknowledged. Unlike Err it ignores a failed
// background snapshot, which loses nothing.
func (s *Store[K, V]) LogErr() error {
	s.w.mu.Lock()
	defer s.w.mu.Unlock()
	return s.w.err
}

// Close stops the snapshotter, flushes and fsyncs the WAL (all
// policies), and closes the files. Idempotent; concurrent callers all
// return after teardown completes.
func (s *Store[K, V]) Close() error {
	s.stopSnapshotter()
	return s.w.close()
}

func (s *Store[K, V]) stopSnapshotter() {
	if !s.started {
		return
	}
	s.snapMu.Lock()
	select {
	case <-s.stopSnap:
	default:
		close(s.stopSnap)
	}
	s.snapMu.Unlock()
	<-s.snapDone
}

// SimulateCrash abandons the store as a process crash would: buffered,
// un-flushed records are lost, nothing is fsynced, files are left
// as-is. The owning map keeps working in memory but logs nothing
// further. See also SimulateTornCrash.
func (s *Store[K, V]) SimulateCrash() error {
	s.stopSnapshotter()
	return s.w.simulateCrash(0)
}

// SimulateTornCrash is SimulateCrash plus a power-loss emulation: up to
// dropTail bytes are cut off the active segment, possibly mid-frame,
// exercising recovery's torn-tail handling.
func (s *Store[K, V]) SimulateTornCrash(dropTail int64) error {
	s.stopSnapshotter()
	return s.w.simulateCrash(dropTail)
}

// AppendBufferCaps reports the capacities of the WAL's two append
// arrays — the one appends are filling and the one the last flush wrote
// out and left for the next swap — smaller first, since the two trade
// places at every flush. It exists for the allocation pins (a flusher
// that dropped an array would show here as a zero or a smaller capacity)
// and waits out a flush in flight, which holds one of the two.
func (s *Store[K, V]) AppendBufferCaps() (lo, hi int) {
	s.w.ioMu.Lock()
	defer s.w.ioMu.Unlock()
	s.w.mu.Lock()
	defer s.w.mu.Unlock()
	return min(cap(s.w.buf), cap(s.w.spare)), max(cap(s.w.buf), cap(s.w.spare))
}

// StoreStats is an observability snapshot of the durability engine.
type StoreStats struct {
	// Records and AppendedBytes cover WAL appends since open;
	// FlushedBytes and SyncedBytes track how much of the logical log
	// has reached the OS and stable storage respectively.
	Records        uint64
	AppendedBytes  int64
	FlushedBytes   int64
	SyncedBytes    int64
	BytesSinceSnap int64
	// Flushes and Syncs count file write-outs and fsyncs.
	Flushes uint64
	Syncs   uint64
	// Snapshots counts completed snapshots; SnapshotEntries their total
	// pairs; SegmentsDeleted the WAL segments truncated behind them,
	// and at open behind the snapshot recovery loaded.
	Snapshots       uint64
	SnapshotEntries uint64
	SegmentsDeleted uint64
	// LateSyncs counts Sync calls that lost a race with Close or
	// SimulateCrash and were answered with ErrSyncRaced.
	LateSyncs uint64
}

// Stats returns the engine counters.
func (s *Store[K, V]) Stats() StoreStats {
	s.w.mu.Lock()
	ws := s.w.stats
	flushed, synced := s.w.flushedLSN, s.w.syncedLSN
	s.w.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Records:         ws.records,
		AppendedBytes:   ws.bytes,
		FlushedBytes:    flushed,
		SyncedBytes:     synced,
		BytesSinceSnap:  ws.sinceSnp,
		Flushes:         ws.flushes,
		Syncs:           ws.syncs,
		Snapshots:       s.snapshots,
		SnapshotEntries: s.snapsEntries,
		SegmentsDeleted: ws.segsGone,
		LateSyncs:       ws.lateSyncs,
	}
}
