package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// FsyncPolicy selects how aggressively the WAL is made durable.
type FsyncPolicy int

const (
	// FsyncInterval (the default) fsyncs the log from a background
	// goroutine at least every Options.FsyncEvery; a crash loses at most
	// that window of committed operations.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways group-commits: every writing operation blocks until an
	// fsync covering its record has completed. Concurrent committers
	// share one fsync, so throughput degrades far less than one fsync
	// per operation would suggest.
	FsyncAlways
	// FsyncNone never fsyncs while running; records are still written to
	// the OS promptly, so a process crash loses little, but a power loss
	// can lose everything since the last snapshot. A clean Close still
	// flushes and syncs.
	FsyncNone
)

// String names the policy for reports.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNone:
		return "none"
	default:
		return "interval"
	}
}

// Options configures a durable map's on-disk behavior. The zero value
// (plus a Dir) is a production-reasonable configuration: interval
// fsyncs, 8 MiB segments, size-triggered background snapshots.
type Options struct {
	// Dir is the directory holding WAL segments and snapshots; it is
	// created if missing. A directory must be owned by at most one open
	// map at a time.
	Dir string
	// Fsync selects the durability/latency trade-off; see FsyncPolicy.
	Fsync FsyncPolicy
	// FsyncEvery is the background fsync (FsyncInterval) and write-out
	// (FsyncNone) cadence. Default 25ms.
	FsyncEvery time.Duration
	// SegmentBytes rotates the active WAL segment once it exceeds this
	// size. Default 8 MiB.
	SegmentBytes int64
	// SnapshotBytes triggers a background snapshot (and subsequent
	// truncation of fully covered segments) once this many WAL bytes
	// have accumulated since the last one, the log an open recovered
	// and kept included. Default 32 MiB; negative disables
	// size-triggered snapshots.
	SnapshotBytes int64

	// fs is the filesystem the store works on (OnDisk).
	fs FS
}

func (o Options) withDefaults() Options {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 25 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = 32 << 20
	}
	return o
}

// ErrClosed is returned by operations on a store that has been closed
// (or has simulated a crash).
var ErrClosed = errors.New("persist: store is closed")

// ErrSyncRaced is returned by Store.Sync (and the WAL sync inside
// Store.Snapshot) when the sync lost a race with Close or SimulateCrash:
// the engine shut down between the call and its fsync, so the caller
// must not treat the call as an acknowledgment of anything appended
// since the shutdown began. It wraps ErrClosed, so existing
// errors.Is(err, ErrClosed) checks keep matching. Each occurrence is
// counted (StoreStats.LateSyncs) alongside the unlogged-commit
// bookkeeping.
var ErrSyncRaced = fmt.Errorf("persist: sync raced shutdown: %w", ErrClosed)

// flushHighWater is the buffered-bytes threshold beyond which an append
// kicks the flusher regardless of policy, bounding user-space buffering.
const flushHighWater = 1 << 20

// wal is the non-generic write-ahead-log engine: an in-memory append
// buffer feeding segment files through a single flusher goroutine.
// Appends happen at the STM publish point (orecs held), so they must be
// cheap: encode into the buffer under a mutex and return. All file I/O
// belongs to the flusher (and to Close/Sync, which run after the
// flusher has stopped or under the I/O mutex).
type wal struct {
	opts Options
	dir  string

	// mu guards the append buffer, LSN bookkeeping, segment metadata
	// and lifecycle flags. Hold it briefly; never do file I/O under it.
	mu      sync.Mutex
	durable *sync.Cond // signals syncedLSN/err/lifecycle changes
	buf     []byte
	// spare is the emptied array of the last chunk written out; flush
	// swaps it in as the next append buffer, so appends between flushes
	// land in an array already sized by earlier traffic instead of
	// re-growing one from nil after every flush.
	spare       []byte
	bufMaxStamp uint64
	appendLSN   int64 // bytes ever appended (logical): the log's end position
	flushedLSN  int64 // bytes written to the OS
	syncedLSN   int64 // bytes covered by an fsync
	fileSeq     uint64
	sealed      []segMeta
	err         error // sticky background I/O error
	closing     bool  // rejects new appends while Close drains
	closed      bool
	crashed     bool
	// unlogged counts committed transactions whose append was rejected
	// because the log was closing or closed — in-memory state that
	// diverged from disk. Surfaced by close and the store's Err so a
	// commit racing Close is reported, never silently dropped (a
	// simulated crash intentionally stops logging and does not count).
	unlogged uint64

	// ioMu guards the segment files themselves. The active segment's
	// metadata is head, which changes under ioMu and mu both.
	ioMu   sync.Mutex
	active File

	flushCh chan struct{}
	stopCh  chan struct{}
	done    chan struct{}

	// snapKick, when set (before any append), is poked once the WAL has
	// grown Options.SnapshotBytes past the last snapshot.
	snapKick func()
	// grown, under mu, is closed by the next append (LogReader.Wait).
	grown chan struct{}

	// Optional instrumentation (see Store.Instrument): fsync latency
	// and records-per-flush histograms, read under w.mu and observed by
	// the flusher — never on the append path. bufRecords counts the
	// records currently buffered, feeding the batch-size histogram.
	instrFsync *obs.Histogram
	instrBatch *obs.Histogram
	bufRecords int

	stats walStats

	// Under mu: the active segment (path "" while there is none), and
	// the chunk a flush is writing out, the log from flushedLSN to buf.
	head     segMeta
	inflight []byte
}

type walStats struct {
	records   uint64
	bytes     int64
	sinceSnp  int64
	flushes   uint64
	syncs     uint64
	segsGone  uint64
	lateSyncs uint64
}

type segMeta struct {
	path     string
	seq      uint64
	n        int64
	maxStamp uint64
	// pos is the log position of the frame at file offset off; frames
	// of an earlier incarnation have none (a recovered segment's off is n).
	pos, off int64
}

func segName(seq uint64) string  { return fmt.Sprintf("wal-%016x.seg", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// newWAL builds the engine over an already-scanned directory state and
// starts the flusher.
func newWAL(opts Options, fileSeq uint64, sealed []segMeta) *wal {
	w := &wal{
		opts:    opts,
		dir:     opts.Dir,
		fileSeq: fileSeq,
		sealed:  sealed,
		flushCh: make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.durable = sync.NewCond(&w.mu)
	go w.flusher()
	return w
}

// nextFileSeq allocates a file sequence number (shared by segments and
// snapshots, so names are unique and ordered across both).
func (w *wal) nextFileSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fileSeq++
	return w.fileSeq
}

// appendRecord encodes one logical record — the ops of a single
// committed transaction — into the append buffer and returns the LSN a
// durability wait must cover. It is called from stm.Tx.OnPublish, while
// the committing transaction still holds its orecs, which is what makes
// append order agree with commit order for conflicting transactions.
func (w *wal) appendRecord(stamp uint64, count int, ops []byte) (lsn int64, err error) {
	w.mu.Lock()
	if w.err != nil {
		err = w.err
		w.mu.Unlock()
		return 0, err
	}
	if w.closing || w.closed {
		if !w.crashed {
			w.unlogged++
		}
		w.mu.Unlock()
		return 0, ErrClosed
	}
	var header int
	w.buf, header = beginFrame(w.buf)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, stamp)
	w.buf = binary.AppendUvarint(w.buf, uint64(count))
	w.buf = append(w.buf, ops...)
	w.buf = finishFrame(w.buf, header)
	frameLen := int64(len(w.buf) - header)
	w.appendLSN += frameLen
	lsn = w.appendLSN
	if stamp > w.bufMaxStamp {
		w.bufMaxStamp = stamp
	}
	w.stats.records++
	w.stats.bytes += frameLen
	w.stats.sinceSnp += frameLen
	w.bufRecords++
	if w.grown != nil {
		close(w.grown)
		w.grown = nil
	}
	kick := w.opts.Fsync == FsyncAlways || len(w.buf) >= flushHighWater
	snap := w.snapKick != nil && w.opts.SnapshotBytes >= 0 && w.stats.sinceSnp >= w.opts.SnapshotBytes
	w.mu.Unlock()
	if kick {
		w.kickFlush()
	}
	if snap {
		w.snapKick()
	}
	return lsn, nil
}

func (w *wal) kickFlush() {
	select {
	case w.flushCh <- struct{}{}:
	default:
	}
}

// waitDurable blocks until an fsync covers lsn (FsyncAlways's
// group-commit wait). It returns immediately for other policies' sticky
// errors, crash simulation, or closure; by the time closure is visible
// the final flush has already covered every accepted append.
func (w *wal) waitDurable(lsn int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncedLSN < lsn && w.err == nil && !w.crashed && !w.closed {
		w.durable.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if w.crashed && w.syncedLSN < lsn {
		return ErrClosed
	}
	return nil
}

// flusher is the single I/O goroutine: it drains the append buffer on
// kicks and on the policy's cadence.
func (w *wal) flusher() {
	defer close(w.done)
	ticker := time.NewTicker(w.opts.FsyncEvery)
	defer ticker.Stop()
	for {
		select {
		case <-w.stopCh:
			return
		case <-w.flushCh:
			w.flush(w.opts.Fsync == FsyncAlways)
		case <-ticker.C:
			w.flush(w.opts.Fsync == FsyncInterval)
		}
	}
}

// flush writes the buffered frames to the active segment and optionally
// fsyncs, then rotates the segment if it outgrew SegmentBytes. Frames
// never split across segments: the buffer is written whole, so segments
// may overshoot by at most one flush. ioMu is taken before the buffer
// is captured, so concurrent flush calls (the background flusher racing
// a user Sync or Close) cannot write their chunks to the file out of
// append order — file order must stay append order, both for the
// stamp-tie contract and for the torn-tail prefix guarantee.
func (w *wal) flush(sync bool) {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.mu.Lock()
	if w.crashed || w.err != nil {
		w.mu.Unlock()
		return
	}
	chunk := w.buf
	target := w.appendLSN
	maxStamp := w.bufMaxStamp
	batchRecords := w.bufRecords
	hFsync, hBatch := w.instrFsync, w.instrBatch
	w.buf, w.spare = w.spare, nil
	w.inflight = chunk
	w.bufMaxStamp = 0
	w.bufRecords = 0
	alreadySynced := w.syncedLSN
	w.mu.Unlock()
	var ioErr error
	if len(chunk) > 0 {
		if w.active == nil {
			ioErr = w.openSegmentLocked()
		}
		if ioErr == nil {
			_, ioErr = w.active.Write(chunk)
		}
		if ioErr == nil && hBatch != nil && batchRecords > 0 {
			hBatch.Observe(uint64(batchRecords))
		}
	}
	if ioErr == nil && sync && w.active != nil && target > alreadySynced {
		var t0 time.Time
		if hFsync != nil {
			t0 = time.Now()
		}
		ioErr = w.active.Sync()
		if hFsync != nil {
			hFsync.ObserveSince(t0)
		}
	}
	w.mu.Lock()
	if ioErr != nil {
		w.setErrLocked(ioErr)
		w.mu.Unlock()
		return
	}
	if len(chunk) > 0 {
		w.flushedLSN = target
		w.stats.flushes++
		w.head.n += int64(len(chunk))
		w.head.maxStamp = max(w.head.maxStamp, maxStamp)
	}
	w.inflight = nil
	if !w.closing {
		w.spare = chunk[:0] // written out (or empty): the next flush's swap-in
	}
	if sync {
		w.syncedLSN = w.flushedLSN
		w.stats.syncs++
		w.durable.Broadcast()
	}
	rotate := w.active != nil && w.head.n >= w.opts.SegmentBytes
	w.mu.Unlock()
	if rotate {
		w.rotateLocked()
	}
}

// unloggedErrLocked reports transactions that committed in memory while
// the log was closing or closed and so were never appended; callers
// hold w.mu.
func (w *wal) unloggedErrLocked() error {
	if w.unlogged == 0 {
		return nil
	}
	return fmt.Errorf("persist: %d committed operations were not logged (commit raced or followed Close)", w.unlogged)
}

// setErrLocked records a sticky background error and wakes waiters;
// callers hold w.mu.
func (w *wal) setErrLocked(err error) {
	if w.err == nil {
		w.err = err
	}
	w.durable.Broadcast()
}

// openSegmentLocked creates the next segment file, the only way a
// segment becomes active: an incarnation's first flush and the first
// flush after each rotation call it. Callers hold ioMu.
func (w *wal) openSegmentLocked() error {
	seq := w.nextFileSeq()
	path := filepath.Join(w.dir, segName(seq))
	f, err := w.opts.fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(walMagic); err != nil {
		f.Close()
		return err
	}
	w.active = f
	n := int64(len(walMagic))
	w.mu.Lock()
	w.head = segMeta{path: path, seq: seq, n: n, pos: w.flushedLSN, off: n}
	w.mu.Unlock()
	return nil
}

// rotateLocked seals the active segment and leaves segment creation to
// the next flush; callers hold ioMu.
func (w *wal) rotateLocked() {
	f := w.active
	if f == nil {
		return
	}
	err := f.Sync()
	f.Close()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.setErrLocked(err)
		return
	}
	w.sealed = append(w.sealed, w.head)
	w.head = segMeta{}
	// A rotation fsynced everything written so far.
	if w.syncedLSN < w.flushedLSN {
		w.syncedLSN = w.flushedLSN
		w.durable.Broadcast()
	}
	w.active = nil
}

// truncateBelow deletes the longest prefix of sealed segments whose
// every record is strictly below minStamp — i.e. fully reflected in a
// snapshot taken at (per-chunk stamps no smaller than) minStamp. The
// prefix rule matters: append order puts a key's delete after its
// insert, so deleting only prefixes can never strand an insert whose
// delete was dropped.
func (w *wal) truncateBelow(minStamp uint64) {
	w.mu.Lock()
	cut := 0
	for cut < len(w.sealed) && w.sealed[cut].maxStamp < minStamp {
		cut++
	}
	drop := make([]string, cut)
	for i, s := range w.sealed[:cut] {
		drop[i] = segName(s.seq)
	}
	w.sealed = w.sealed[cut:]
	w.stats.segsGone += uint64(cut)
	w.mu.Unlock()
	if cut > 0 {
		w.opts.fs.Remove(w.dir, drop...)
	}
}

// resetSnapshotDebt zeroes the WAL-growth counter that size-triggers
// background snapshots; called after each completed snapshot.
func (w *wal) resetSnapshotDebt() {
	w.mu.Lock()
	w.stats.sinceSnp = 0
	w.mu.Unlock()
}

// sync forces buffered records to disk with an fsync, regardless of
// policy. Safe to call concurrently with appends. A nil return means
// every record appended before the call is on stable storage — a sync
// that loses a race with Close or SimulateCrash is reported as
// ErrSyncRaced (and counted) rather than falsely acknowledged or
// silently mapped to a low-level file error. The post-flush re-check
// matters: a Close that completes between the entry check and the
// flush leaves flush a no-op with syncedLSN already at target, which
// used to read as a successful sync of a closed engine.
func (w *wal) sync() error {
	w.mu.Lock()
	if w.crashed || w.closing || w.closed {
		err := w.err
		w.stats.lateSyncs++
		w.mu.Unlock()
		if err != nil {
			return err
		}
		return ErrSyncRaced
	}
	target := w.appendLSN
	w.mu.Unlock()
	w.flush(true)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.crashed || w.closing || w.closed {
		w.stats.lateSyncs++
		return ErrSyncRaced
	}
	if w.syncedLSN < target {
		return ErrClosed
	}
	return nil
}

// close drains the engine: new appends are rejected, the flusher stops,
// everything buffered reaches disk with a final fsync (all policies —
// flush-on-close), and the active segment is closed. Idempotent and
// safe for concurrent callers: every call returns after teardown has
// completed, with the sticky error state.
func (w *wal) close() error {
	w.mu.Lock()
	if w.closed || w.closing {
		for !w.closed {
			w.durable.Wait()
		}
		err := w.err
		if err == nil {
			err = w.unloggedErrLocked()
		}
		w.mu.Unlock()
		return err
	}
	w.closing = true
	w.mu.Unlock()

	close(w.stopCh)
	<-w.done
	if !w.isCrashed() {
		w.flush(true)
	}
	w.ioMu.Lock()
	if w.active != nil {
		w.active.Close()
		w.active = nil
	}
	w.ioMu.Unlock()
	w.mu.Lock()
	w.closed = true
	w.durable.Broadcast()
	err := w.err
	if err == nil {
		err = w.unloggedErrLocked()
	}
	w.mu.Unlock()
	return err
}

func (w *wal) isCrashed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.crashed
}

// simulateCrash kills the engine the way a process crash would: the
// user-space append buffer is discarded without reaching the OS, no
// final fsync happens, and the files are abandoned as-is. dropTail
// additionally truncates the active segment by up to that many bytes,
// emulating a power loss tearing the unsynced suffix — possibly
// mid-frame, which recovery must tolerate. The cut never reaches into
// fsynced data: a real power loss cannot revoke a completed fsync, and
// the stress harness relies on exactly that bound.
func (w *wal) simulateCrash(dropTail int64) error {
	w.mu.Lock()
	if w.closed || w.closing {
		w.mu.Unlock()
		return ErrClosed
	}
	w.closing = true
	w.crashed = true
	w.buf = nil // lost: never handed to the OS
	w.bufRecords = 0
	w.durable.Broadcast()
	w.mu.Unlock()

	close(w.stopCh)
	<-w.done
	w.ioMu.Lock()
	// Bytes in the file but not yet covered by an fsync; rotation syncs
	// before sealing, so all of them live in the active segment. Read
	// only after ioMu is held: an in-flight Sync that wins the ioMu race
	// may still be fsyncing, and its acknowledgment must bound the cut.
	w.mu.Lock()
	unsynced, n := w.flushedLSN-w.syncedLSN, w.head.n
	w.mu.Unlock()
	if w.active != nil {
		if dropTail > unsynced {
			dropTail = unsynced
		}
		if dropTail > 0 {
			w.active.Truncate(max(n-dropTail, int64(len(walMagic))))
		}
		w.active.Close()
		w.active = nil
	}
	w.ioMu.Unlock()
	w.mu.Lock()
	w.closed = true
	w.durable.Broadcast()
	w.mu.Unlock()
	return nil
}
