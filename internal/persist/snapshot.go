package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// Snapshot files hold the map's pairs as a sequence of chunk frames,
// each chunk tagged with the clock stamp of the read-only transaction
// that observed it — the chunk is a consistent view of its keys as of
// that stamp, even though the whole file spans many stamps while
// writers proceed. A trailer frame seals the file; a snapshot without a
// valid trailer is an aborted write and is never loaded. Files are
// written to a .tmp name, fsynced, and atomically renamed.

const (
	snapTagChunk   = 1
	snapTagTrailer = 2
)

// SnapshotSource iterates a map in chunked consistent reads: emit is
// called once per chunk with the chunk's clock stamp and pairs (the
// final chunk may be empty — it stamps the end of iteration, which is
// what allows truncating the WAL of an empty map).
type SnapshotSource[K comparable, V any] func(chunkSize int, emit func(stamp uint64, kvs []KV[K, V]) error) error

// snapWriter streams one snapshot file.
type snapWriter[K comparable, V any] struct {
	f   *os.File
	bw  *bufio.Writer
	kc  Codec[K]
	vc  Codec[V]
	buf []byte

	total    uint64
	minStamp uint64
	maxStamp uint64
	chunks   int
}

func newSnapWriter[K comparable, V any](path string, kc Codec[K], vc Codec[V]) (*snapWriter[K, V], error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	sw := &snapWriter[K, V]{f: f, bw: bufio.NewWriterSize(f, 1<<16), kc: kc, vc: vc, minStamp: ^uint64(0)}
	if _, err := sw.bw.Write(snapMagic); err != nil {
		f.Close()
		return nil, err
	}
	return sw, nil
}

func (sw *snapWriter[K, V]) writeChunk(stamp uint64, kvs []KV[K, V]) error {
	var header int
	sw.buf, header = beginFrame(sw.buf[:0])
	sw.buf = append(sw.buf, snapTagChunk)
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, stamp)
	sw.buf = binary.AppendUvarint(sw.buf, uint64(len(kvs)))
	for _, kv := range kvs {
		sw.buf = sw.kc.Append(sw.buf, kv.Key)
		sw.buf = sw.vc.Append(sw.buf, kv.Val)
	}
	sw.buf = finishFrame(sw.buf, header)
	sw.total += uint64(len(kvs))
	if stamp < sw.minStamp {
		sw.minStamp = stamp
	}
	if stamp > sw.maxStamp {
		sw.maxStamp = stamp
	}
	sw.chunks++
	_, err := sw.bw.Write(sw.buf)
	return err
}

// finish writes the trailer, fsyncs, and closes the file. It reports
// the stamp bounds for truncation decisions.
func (sw *snapWriter[K, V]) finish() (minStamp, maxStamp uint64, err error) {
	if sw.chunks == 0 {
		// Sources always emit at least one (possibly empty) chunk; guard
		// anyway so an empty file still has defined bounds.
		sw.minStamp, sw.maxStamp = 0, 0
	}
	var header int
	sw.buf, header = beginFrame(sw.buf[:0])
	sw.buf = append(sw.buf, snapTagTrailer)
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, sw.total)
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, sw.minStamp)
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, sw.maxStamp)
	sw.buf = finishFrame(sw.buf, header)
	if _, err := sw.bw.Write(sw.buf); err != nil {
		sw.f.Close()
		return 0, 0, err
	}
	if err := sw.bw.Flush(); err != nil {
		sw.f.Close()
		return 0, 0, err
	}
	if err := sw.f.Sync(); err != nil {
		sw.f.Close()
		return 0, 0, err
	}
	return sw.minStamp, sw.maxStamp, sw.f.Close()
}

func (sw *snapWriter[K, V]) abort() { sw.f.Close() }

// walkSnapshot checks a snapshot file's frames, chunk headers and
// trailer, handing each chunk to fn (when non-nil) as its frame offset,
// stamp, pair count and encoded pairs. Any framing, checksum, count or
// trailer violation is corruption: the file was fsynced before its
// atomic rename, so a damaged snapshot is never a crash artifact.
func walkSnapshot(path string, data []byte,
	fn func(off int64, stamp, count uint64, body []byte) error) (minStamp, maxStamp, total uint64, err error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != string(snapMagic) {
		return 0, 0, 0, &CorruptionError{Path: path, Offset: 0, Reason: "bad snapshot magic"}
	}
	r := &frameReader{path: path, data: data, off: int64(len(snapMagic))}
	sealed := false
	sawChunk := false
	for {
		payload, off, done, err := r.next()
		if done {
			break
		}
		if err != nil {
			if err == errTornFrame {
				err = &CorruptionError{Path: path, Offset: off, Reason: "truncated snapshot frame"}
			}
			return 0, 0, 0, err
		}
		if sealed {
			return 0, 0, 0, &CorruptionError{Path: path, Offset: off, Reason: "data after snapshot trailer"}
		}
		if len(payload) < 1 {
			return 0, 0, 0, &CorruptionError{Path: path, Offset: off, Reason: "empty snapshot frame"}
		}
		switch payload[0] {
		case snapTagChunk:
			body := payload[1:]
			if len(body) < 8 {
				return 0, 0, 0, &CorruptionError{Path: path, Offset: off, Reason: "short chunk header"}
			}
			stamp := binary.LittleEndian.Uint64(body)
			body = body[8:]
			count, n, uerr := readUvarint(body)
			if uerr != nil {
				return 0, 0, 0, &CorruptionError{Path: path, Offset: off, Reason: uerr.Error()}
			}
			body = body[n:]
			if count > uint64(len(body))+1 {
				// Keys are distinct and self-delimiting, so at most one of
				// them encodes to no bytes: a larger count cannot be real,
				// and would otherwise size recovery's op array.
				return 0, 0, 0, &CorruptionError{Path: path, Offset: off,
					Reason: fmt.Sprintf("chunk counts %d pairs in %d bytes", count, len(body))}
			}
			if fn != nil {
				if err := fn(off, stamp, count, body); err != nil {
					return 0, 0, 0, err
				}
			}
			total += count
			if !sawChunk || stamp < minStamp {
				minStamp = stamp
			}
			maxStamp = max(maxStamp, stamp)
			sawChunk = true
		case snapTagTrailer:
			body := payload[1:]
			if len(body) != 24 {
				return 0, 0, 0, &CorruptionError{Path: path, Offset: off, Reason: "bad trailer size"}
			}
			wantTotal := binary.LittleEndian.Uint64(body)
			if wantTotal != total {
				return 0, 0, 0, &CorruptionError{Path: path, Offset: off,
					Reason: fmt.Sprintf("trailer records %d entries, file holds %d", wantTotal, total)}
			}
			sealed = true
		default:
			return 0, 0, 0, &CorruptionError{Path: path, Offset: off, Reason: fmt.Sprintf("unknown frame tag %d", payload[0])}
		}
	}
	if !sealed {
		return 0, 0, 0, &CorruptionError{Path: path, Offset: r.off, Reason: "missing snapshot trailer"}
	}
	return minStamp, maxStamp, total, nil
}

// decodeChunk decodes one snapshot chunk's count pairs, handing each to
// put.
func decodeChunk[K comparable, V any](path string, off int64, body []byte, count uint64,
	kc Codec[K], vc Codec[V], put func(K, V) error) error {
	for i := uint64(0); i < count; i++ {
		k, n, err := kc.Read(body)
		if err != nil {
			return &CorruptionError{Path: path, Offset: off, Reason: "key decode: " + err.Error()}
		}
		body = body[n:]
		v, n, err := vc.Read(body)
		if err != nil {
			return &CorruptionError{Path: path, Offset: off, Reason: "value decode: " + err.Error()}
		}
		body = body[n:]
		if err := put(k, v); err != nil {
			return err
		}
	}
	if len(body) != 0 {
		return &CorruptionError{Path: path, Offset: off, Reason: "trailing bytes in chunk"}
	}
	return nil
}

// removeFiles deletes the named directory entries, ignoring errors.
func removeFiles(dir string, names []string) {
	for _, n := range names {
		os.Remove(filepath.Join(dir, n))
	}
}
