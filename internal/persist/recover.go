package persist

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// RecoverInfo summarizes what Open reconstructed from disk.
type RecoverInfo struct {
	// Entries is how many pairs the recovered state holds.
	Entries int
	// SnapshotEntries is how many pairs the loaded snapshot held.
	SnapshotEntries int
	// Records is how many WAL records were parsed.
	Records int
	// Segments is how many WAL segment files were read.
	Segments int
	// MaxStamp is the largest commit stamp observed anywhere (snapshot
	// chunks and WAL records); the reopened map's clock is floored above
	// it so new commits keep the log totally ordered across restarts.
	MaxStamp uint64
	// TornTail reports that the newest segment ended in an incomplete
	// frame (the expected artifact of a crash mid-append); the tail was
	// discarded and the file repaired.
	TornTail bool
}

const (
	opPut = 1
	opDel = 2
)

// dirState is the scan of a durability directory.
type dirState struct {
	segs     []segMeta // ascending seq; n/maxStamp filled during read
	snaps    []uint64  // snapshot seqs, ascending
	maxSeq   uint64
	tmpFiles []string
}

func scanDir(dir string) (dirState, error) {
	var st dirState
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return st, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
			if err != nil {
				continue
			}
			st.segs = append(st.segs, segMeta{path: filepath.Join(dir, name), seq: seq})
			if seq > st.maxSeq {
				st.maxSeq = seq
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
			if err != nil {
				continue
			}
			st.snaps = append(st.snaps, seq)
			if seq > st.maxSeq {
				st.maxSeq = seq
			}
		case strings.HasSuffix(name, ".tmp"):
			st.tmpFiles = append(st.tmpFiles, name)
		}
	}
	sort.Slice(st.segs, func(i, j int) bool { return st.segs[i].seq < st.segs[j].seq })
	sort.Slice(st.snaps, func(i, j int) bool { return st.snaps[i] < st.snaps[j] })
	return st, nil
}

// walkSegment checks one WAL segment's frames and hands each record to
// fn as its frame offset, stamp, op count and encoded ops. last selects
// the torn-tail tolerance: in the newest segment an incomplete frame at
// EOF is a crash artifact — the walk stops and the good prefix length is
// returned for repair; anywhere else it is corruption. A checksum
// mismatch is corruption everywhere — a deliberate trade-off. Past the
// last fsync horizon, out-of-order page persistence after power loss
// could in principle leave a mismatching frame followed by valid bytes
// (not the clean prefix tear or zero-fill handled below), but recovery
// cannot tell that apart from a flipped bit in acknowledged data: the
// sync horizon is not persisted. Truncating on mismatch would silently
// discard records a user may have been promised, so recovery refuses
// with a CorruptionError and leaves the choice to the operator.
func walkSegment(path string, data []byte, last bool,
	fn func(off int64, stamp, count uint64, ops []byte) error) (goodEnd int64, torn bool, err error) {
	if len(data) == 0 && last {
		// Crash between file creation and the header write.
		return 0, true, nil
	}
	if len(data) < len(walMagic) {
		if last {
			return 0, true, nil
		}
		return 0, false, &CorruptionError{Path: path, Offset: 0, Reason: "short segment header"}
	}
	if string(data[:len(walMagic)]) != string(walMagic) {
		return 0, false, &CorruptionError{Path: path, Offset: 0, Reason: "bad segment magic"}
	}
	return walkFrames(path, data, int64(len(walMagic)), last, fn)
}

// WalkFrames checks a run of whole WAL frames, as LogReader.Read returns
// them and the replication stream carries them, with recovery's own
// per-frame check, and hands each record to fn in order as walkSegment
// does. A torn or bad frame is a *CorruptionError, returned before fn
// sees that frame (the records before it have been handed over).
func WalkFrames(frames []byte, fn func(off int64, stamp, count uint64, ops []byte) error) error {
	_, _, err := walkFrames("log run", frames, 0, false, fn)
	return err
}

// walkFrames is walkSegment past the magic: the frames of data from
// offset off on.
func walkFrames(path string, data []byte, off int64, last bool,
	fn func(off int64, stamp, count uint64, ops []byte) error) (goodEnd int64, torn bool, err error) {
	for goodEnd = off; goodEnd < int64(len(data)); {
		off := goodEnd
		payload, err := cutFrame(path, off, data[off:])
		if err == errTornFrame {
			if !last {
				return 0, false, &CorruptionError{Path: path, Offset: off, Reason: "torn frame"}
			}
			return goodEnd, true, nil
		}
		if err != nil {
			return 0, false, err
		}
		if len(payload) < 9 {
			// A real record payload is at least stamp+count (9 bytes); a
			// shorter "frame" in the newest segment is a zero-extended
			// tail (delayed allocation after power loss zero-fills the
			// unsynced suffix, and an all-zero header parses as an empty
			// frame whose CRC of nothing matches). Torn tail there;
			// corruption anywhere else.
			if last {
				return goodEnd, true, nil
			}
			return 0, false, &CorruptionError{Path: path, Offset: off, Reason: "record too short"}
		}
		stamp := binary.LittleEndian.Uint64(payload)
		count, n, uerr := readUvarint(payload[8:])
		if uerr != nil {
			return 0, false, &CorruptionError{Path: path, Offset: off, Reason: uerr.Error()}
		}
		ops := payload[8+n:]
		if count > uint64(len(ops)) {
			// Every op spends at least its kind byte. Refusing here keeps a
			// CRC-valid but absurd count from sizing recovery's op array.
			return 0, false, &CorruptionError{Path: path, Offset: off,
				Reason: fmt.Sprintf("record counts %d ops in %d bytes", count, len(ops))}
		}
		if err := fn(off, stamp, count, ops); err != nil {
			return 0, false, err
		}
		goodEnd += frameHeaderLen + int64(len(payload))
	}
	return goodEnd, false, nil
}

// truncateDurable truncates a file to size and fsyncs the result (file
// and parent directory), so the repair cannot be reverted by a later
// power loss.
func truncateDurable(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// foldOp is one stamped operation of a fold: a snapshot entry (stamped
// with its chunk's stamp) or one logged op (stamped with its record's),
// numbered by seq in the order it was added. For pointer-free K and V
// the whole array is pointer-free, so the collector never scans it.
type foldOp[K comparable, V any] struct {
	key   K
	val   V
	stamp uint64
	seq   uint64
	put   bool
}

// fold rebuilds a map's state from a snapshot plus the log after it.
// Snapshot entries go in first (addSnapshot), stamped with their chunk's
// stamp, then every logged op in log order (addOps), stamped with its
// record's. pairs orders the lot by (key, stamp, order added) and keeps
// each key's last op: an op the key's chunk already reflects sorts
// before the snapshot entry, a newer one after it, and order added
// resolves stamp ties, which is commit order for any two records that
// touch the same key (appends happen while the committing transaction
// still holds its write set).
type fold[K comparable, V any] struct {
	less    func(a, b K) bool
	kc      Codec[K]
	vc      Codec[V]
	ops     []foldOp[K, V]
	snapOps int    // ops[:snapOps] are the snapshot's entries
	stamp   uint64 // stamp of the ops being added
	put     func(K, V) error
	del     func(K) error
	snap    snapCheck // the snapshot bytes added so far
}

// newFold returns an empty fold over keys ordered by less, with room for
// size ops.
func newFold[K comparable, V any](less func(a, b K) bool, kc Codec[K], vc Codec[V], size uint64) *fold[K, V] {
	f := &fold[K, V]{less: less, kc: kc, vc: vc, ops: make([]foldOp[K, V], 0, size)}
	f.put = func(k K, v V) error {
		f.ops = append(f.ops, foldOp[K, V]{key: k, val: v, stamp: f.stamp, seq: uint64(len(f.ops)), put: true})
		return nil
	}
	f.del = func(k K) error {
		f.ops = append(f.ops, foldOp[K, V]{key: k, stamp: f.stamp, seq: uint64(len(f.ops))})
		return nil
	}
	return f
}

// addSnapshot checks and folds the next bytes of a snapshot file, whole
// or cut anywhere: each chunk is folded once its frame has arrived and
// passed recovery's checks. Any violation is a *CorruptionError.
func (f *fold[K, V]) addSnapshot(p []byte) error {
	return f.snap.add(p, func(off int64, stamp, count uint64, body []byte) error {
		f.stamp = stamp
		return decodeChunk(f.snap.path, off, body, count, f.kc, f.vc, f.put)
	})
}

// endSnapshot reports whether the bytes added form one whole snapshot,
// its trailer's total matching its chunks' (a *CorruptionError if not,
// also when none were added). Call it before the first addOps.
func (f *fold[K, V]) endSnapshot() error {
	f.snapOps = len(f.ops)
	return f.snap.end()
}

// addOps adds one WAL record's encoded op list (see DecodeOps) at its
// stamp.
func (f *fold[K, V]) addOps(stamp, count uint64, ops []byte) error {
	f.stamp = stamp
	return DecodeOps(ops, count, f.kc, f.vc, f.put, f.del)
}

// pairs folds everything added and returns the surviving pairs strictly
// ascending by less. A snapshot's chunks are written in key order, so
// only the log ops are sorted, and the two runs are merged. It consumes
// the fold.
func (f *fold[K, V]) pairs() []KV[K, V] {
	less := f.less
	order := func(a, b foldOp[K, V]) int {
		switch {
		case less(a.key, b.key):
			return -1
		case less(b.key, a.key):
			return 1
		case a.stamp != b.stamp:
			return cmp.Compare(a.stamp, b.stamp)
		}
		return cmp.Compare(a.seq, b.seq)
	}
	snap, log := f.ops[:f.snapOps], f.ops[f.snapOps:]
	f.ops = nil
	if !slices.IsSortedFunc(snap, order) {
		slices.SortFunc(snap, order) // a file not written by WriteSnapshot
	}
	slices.SortFunc(log, order)
	// last hands fn each key's last op of the two runs merged in order.
	last := func(fn func(op *foldOp[K, V])) {
		var prev *foldOp[K, V]
		for i, j := 0, 0; i < len(snap) || j < len(log); {
			var op *foldOp[K, V]
			if i < len(snap) && (j == len(log) || order(snap[i], log[j]) < 0) {
				op = &snap[i]
				i++
			} else {
				op = &log[j]
				j++
			}
			if prev != nil && less(prev.key, op.key) {
				fn(prev)
			}
			prev = op
		}
		if prev != nil {
			fn(prev)
		}
	}
	live := 0
	last(func(op *foldOp[K, V]) {
		if op.put {
			live++
		}
	})
	pairs := make([]KV[K, V], 0, live)
	last(func(op *foldOp[K, V]) {
		if op.put {
			pairs = append(pairs, KV[K, V]{Key: op.key, Val: op.val})
		}
	})
	return pairs
}

// recoverDir reconstructs state from a durability directory: newest
// valid snapshot plus the WAL, returned as strictly ascending pairs by
// less. It also repairs a torn tail in place and reports the segment
// metadata the reopened engine continues from.
//
// Recovery is one flat pipeline. A first walk checks every frame and sums
// the snapshot's entries and the records' op counts; a fold presized to
// that exact count then takes every snapshot entry and every WAL op and
// folds them: one sort of the log ops, merged into the snapshot's run.
func recoverDir[K comparable, V any](dir string, less func(a, b K) bool, kc Codec[K], vc Codec[V]) (
	pairs []KV[K, V], info RecoverInfo, st dirState, err error) {
	st, err = scanDir(dir)
	if err != nil {
		return nil, info, st, err
	}
	// Aborted snapshot writes and restores (a crash before their rename
	// or Install) are garbage.
	for _, name := range st.tmpFiles {
		os.RemoveAll(filepath.Join(dir, name))
	}

	// Pass 1: read and check every file, size the op array.
	var snapPath string
	var snapData []byte
	var snapMin uint64
	if len(st.snaps) > 0 {
		snapPath = filepath.Join(dir, snapName(st.snaps[len(st.snaps)-1]))
		if snapData, err = os.ReadFile(snapPath); err != nil {
			return nil, info, st, err
		}
		c := snapCheck{path: snapPath}
		if err = c.add(snapData, nil); err == nil {
			err = c.end()
		}
		if err != nil {
			return nil, info, st, err
		}
		snapMin = c.minStamp
		info.SnapshotEntries = int(c.total)
		info.MaxStamp = c.maxStamp
		// Older snapshots are fully superseded.
		for _, seq := range st.snaps[:len(st.snaps)-1] {
			os.Remove(filepath.Join(dir, snapName(seq)))
		}
		st.snaps = st.snaps[len(st.snaps)-1:]
	}
	segData := make([][]byte, len(st.segs))
	size := uint64(info.SnapshotEntries)
	var seg *segMeta
	countOps := func(_ int64, stamp, count uint64, _ []byte) error {
		info.Records++
		size += count
		seg.maxStamp = max(seg.maxStamp, stamp)
		return nil
	}
	for i := range st.segs {
		seg = &st.segs[i]
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, info, st, err
		}
		goodEnd, torn, err := walkSegment(seg.path, data, i == len(st.segs)-1, countOps)
		if err != nil {
			return nil, info, st, err
		}
		// Positions number this incarnation's frames only (see LogReader),
		// so nothing recovered has one: its readable range is empty.
		seg.n, seg.off = goodEnd, goodEnd
		segData[i] = data[:goodEnd]
		info.MaxStamp = max(info.MaxStamp, seg.maxStamp)
		if torn {
			info.TornTail = true
			// Repair and fsync: the truncation must itself survive a
			// power loss, or resurrected pre-truncate bytes could later
			// sit under freshly appended frames and turn a recoverable
			// torn tail into a checksum mismatch.
			if err := truncateDurable(seg.path, goodEnd); err != nil {
				return nil, info, st, err
			}
		}
	}
	info.Segments = len(st.segs)

	// Pass 2: decode the snapshot, then every WAL op in file order. The
	// first pass checked every frame and count, so exactly size ops land.
	f := newFold(less, kc, vc, size)
	if snapData != nil {
		f.snap.path = snapPath
		if err = f.addSnapshot(snapData); err == nil {
			err = f.endSnapshot()
		}
		if err != nil {
			return nil, info, st, err
		}
	}
	var path string
	decode := func(off int64, stamp, count uint64, body []byte) error {
		if err := f.addOps(stamp, count, body); err != nil {
			return fmt.Errorf("%s: record at offset %d: %w", path, off, err)
		}
		return nil
	}
	for i, data := range segData {
		path = st.segs[i].path
		if _, _, err = walkSegment(path, data, i == len(segData)-1, decode); err != nil {
			return nil, info, st, err
		}
	}
	pairs = f.pairs()
	info.Entries = len(pairs)

	// Tidy: segments fully covered by the loaded snapshot are dead
	// weight on the next recovery. Prefix rule as in wal.truncateBelow.
	if snapMin > 0 {
		cut := 0
		for cut < len(st.segs)-1 && st.segs[cut].maxStamp < snapMin {
			cut++
		}
		for _, s := range st.segs[:cut] {
			os.Remove(s.path)
		}
		st.segs = st.segs[cut:]
	}
	return pairs, info, st, nil
}
