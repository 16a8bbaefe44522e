package persist

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"slices"
)

// ErrTruncated is returned by LogReader.Read for a log position a
// snapshot has truncated (or one the log never had).
var ErrTruncated = errors.New("persist: log position truncated")

// LogReader reads the store's WAL back by log position, the byte offset
// into the frames appended since the store opened (appendLSN). Frames
// come back verbatim: from the segment files once written out, else
// copied under w.mu from the append buffer or the chunk a flush has in
// flight. A reader keeps the segment file it reads open, so truncation
// needs no coordination with it. One goroutine uses a reader.
type LogReader struct {
	w   *wal
	f   File
	seq uint64 // f's segment
}

// NewLogReader returns a reader over the store's log; Close releases it.
func (s *Store[K, V]) NewLogReader() *LogReader { return &LogReader{w: s.w} }

// End returns the log's end position, where the next frame will start.
func (r *LogReader) End() int64 {
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	return r.w.appendLSN
}

// Has reports whether Read can start at pos.
func (r *LogReader) Has(pos int64) bool {
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	_, _, ok := r.w.locateLocked(pos)
	return ok
}

// Wait returns a channel that the next append closes, or a closed one
// when the log already extends past pos.
func (r *LogReader) Wait(pos int64) <-chan struct{} {
	w := r.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.appendLSN > pos {
		grown := make(chan struct{})
		close(grown)
		return grown
	}
	if w.grown == nil {
		w.grown = make(chan struct{})
	}
	return w.grown
}

// Read appends to dst the whole frames from position pos on, at most
// limit bytes of them unless the first frame alone is longer. pos must
// be 0, an End, or where an earlier Read stopped. At the log's end Read
// appends nothing; it returns ErrTruncated for a position the log does
// not hold and ErrClosed after a crash.
func (r *LogReader) Read(dst []byte, pos int64, limit int) ([]byte, error) {
	w := r.w
	w.mu.Lock()
	seg, end, ok := w.locateLocked(pos)
	if ok && seg.path == "" && !w.crashed { // not written out yet
		defer w.mu.Unlock()
		return readRun(dst, pos, end, limit, func(dst []byte, p, q int64) ([]byte, error) {
			base := w.flushedLSN
			for _, b := range [2][]byte{w.inflight, w.buf} {
				if lo, hi := max(p-base, 0), min(q-base, int64(len(b))); lo < hi {
					dst = append(dst, b[lo:hi]...)
				}
				base += int64(len(b))
			}
			return dst, nil
		})
	}
	crashed := w.crashed
	w.mu.Unlock()
	switch {
	case crashed:
		return dst, ErrClosed
	case !ok:
		return dst, ErrTruncated
	case r.f == nil || r.seq != seg.seq:
		f, err := w.opts.fs.d().OpenFile(seg.path, os.O_RDONLY, 0)
		if errors.Is(err, fs.ErrNotExist) {
			return dst, ErrTruncated // truncated since it was located
		} else if err != nil {
			return dst, err
		}
		r.Close()
		r.f, r.seq = f, seg.seq
	}
	return readRun(dst, pos, end, limit, func(dst []byte, p, q int64) ([]byte, error) {
		n := len(dst)
		dst = slices.Grow(dst, int(q-p))[:n+int(q-p)]
		_, err := r.f.ReadAt(dst[n:], seg.off+p-seg.pos)
		return dst, err
	})
}

// Close releases the segment file the reader holds.
func (r *LogReader) Close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// readRun appends the whole frames of [pos, end) that fit in limit
// bytes, or the first frame alone when it is longer, fetching the bytes
// of [p, q) with fetch and checking each frame as recovery does.
func readRun(dst []byte, pos, end int64, limit int, fetch func(dst []byte, p, q int64) ([]byte, error)) ([]byte, error) {
	n := len(dst)
	dst, err := fetch(dst, pos, min(end, pos+int64(max(limit, frameHeaderLen))))
	if err != nil {
		return dst[:n], err
	}
	off := n
	for off < len(dst) {
		payload, err := cutFrame("log", int64(off-n), dst[off:])
		switch {
		case err != nil && off > n:
			return dst[:off], nil
		case err == errTornFrame: // the first frame is longer than limit
			return fetch(dst[:n], pos, pos+frameHeaderLen+int64(binary.LittleEndian.Uint32(dst[n:])))
		case err != nil:
			return dst[:n], err
		}
		off += frameHeaderLen + len(payload)
	}
	return dst, nil
}

// locateLocked finds log position pos: the segment holding it and the
// position its written bytes end at, or, not written out yet, no path
// and the log's end. Callers hold w.mu.
func (w *wal) locateLocked(pos int64) (segMeta, int64, bool) {
	if pos >= w.flushedLSN {
		return segMeta{}, w.appendLSN, pos <= w.appendLSN
	}
	for _, s := range w.sealed {
		if end := s.pos + s.n - s.off; pos >= s.pos && pos < end {
			return s, end, true
		}
	}
	return w.head, w.flushedLSN, w.head.path != "" && pos >= w.head.pos
}
