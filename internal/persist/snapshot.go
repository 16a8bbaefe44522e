package persist

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Snapshot files hold the map's pairs as a sequence of chunk frames,
// each chunk tagged with the clock stamp of the read-only transaction
// that observed it — the chunk is a consistent view of its keys as of
// that stamp, even though the whole file spans many stamps while
// writers proceed. A trailer frame seals the file with its pair total;
// a snapshot without a valid trailer is an aborted write and is never
// loaded. Files are written to a .tmp name, fsynced, and atomically
// renamed. A primary's full resync streams the same bytes to a follower
// (internal/repl), whose Restore checks them as a file and keeps them.

const (
	snapTagChunk   = 1
	snapTagTrailer = 2
	// snapshotChunk is how many pairs each snapshot chunk transaction
	// reads (each chunk is consistent at its own clock stamp).
	snapshotChunk = 512
)

// SnapshotSource iterates a map in chunked consistent reads: emit is
// called once per chunk with the chunk's clock stamp and pairs (the
// final chunk may be empty — it stamps the end of iteration, which is
// what allows truncating the WAL of an empty map).
type SnapshotSource[K comparable, V any] func(chunkSize int, emit func(stamp uint64, kvs []KV[K, V]) error) error

// WriteSnapshot encodes a snapshot of source to w: the magic, one chunk
// frame per chunk the source emits, and the trailer that seals it. Each
// frame (the first with the magic) reaches w in one Write. It is the one
// snapshot encoder: Store.Snapshot points it at a file, a primary's full
// resync at a follower (internal/repl). It returns the earliest chunk
// stamp, which bounds the WAL the snapshot supersedes, and the pair
// total.
func WriteSnapshot[K comparable, V any](w io.Writer, source SnapshotSource[K, V], kc Codec[K], vc Codec[V]) (minStamp, total uint64, err error) {
	buf := append([]byte(nil), snapMagic...)
	minStamp = ^uint64(0)
	var maxStamp uint64
	err = source(snapshotChunk, func(stamp uint64, kvs []KV[K, V]) error {
		var header int
		buf, header = beginFrame(buf)
		buf = append(buf, snapTagChunk)
		buf = binary.LittleEndian.AppendUint64(buf, stamp)
		buf = binary.AppendUvarint(buf, uint64(len(kvs)))
		for _, kv := range kvs {
			buf = kc.Append(buf, kv.Key)
			buf = vc.Append(buf, kv.Val)
		}
		buf = finishFrame(buf, header)
		total += uint64(len(kvs))
		minStamp, maxStamp = min(minStamp, stamp), max(maxStamp, stamp)
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	if minStamp > maxStamp {
		// Sources always emit at least one (possibly empty) chunk; guard
		// anyway so an empty file still has defined bounds.
		minStamp = 0
	}
	var header int
	buf, header = beginFrame(buf)
	buf = append(buf, snapTagTrailer)
	buf = binary.LittleEndian.AppendUint64(buf, total)
	buf = binary.LittleEndian.AppendUint64(buf, minStamp)
	buf = binary.LittleEndian.AppendUint64(buf, maxStamp)
	buf = finishFrame(buf, header)
	_, err = w.Write(buf)
	return minStamp, total, err
}

// snapCheck checks the bytes of one snapshot file as they arrive, in one
// piece (recovery reads the file) or in runs cut anywhere (a full
// resync streams it): the magic, every frame's length and checksum,
// every chunk header, and the trailer, whose total must match the
// chunks'. Any violation is corruption: a file was fsynced before its
// atomic rename and a stream is a file's bytes, so a damaged snapshot is
// never a crash artifact.
type snapCheck struct {
	path    string
	off     int64  // file offset of the first byte not yet checked
	pending []byte // bytes from off on: the magic or a frame, still incomplete
	sealed  bool   // the trailer has been checked
	total   uint64 // pairs in the chunks checked so far
	// minStamp and maxStamp are the trailer's chunk stamp bounds.
	minStamp, maxStamp uint64
}

// add checks the next bytes of the file, handing each whole chunk to fn
// (when non-nil) as its frame offset, stamp, pair count and encoded
// pairs.
func (c *snapCheck) add(p []byte, fn func(off int64, stamp, count uint64, body []byte) error) error {
	data := p
	if len(c.pending) > 0 {
		data = append(c.pending, p...)
	}
	for len(data) > 0 {
		n, err := c.step(data, fn)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		data = data[n:]
		c.off += int64(n)
	}
	c.pending = append(c.pending[:0], data...)
	return nil
}

// step checks the magic or the frame at the front of data and returns
// its length, or 0 when data ends inside it.
func (c *snapCheck) step(data []byte, fn func(off int64, stamp, count uint64, body []byte) error) (int, error) {
	corrupt := func(reason string) error {
		return &CorruptionError{Path: c.path, Offset: c.off, Reason: reason}
	}
	if c.off == 0 {
		if len(data) < len(snapMagic) {
			return 0, nil
		}
		if string(data[:len(snapMagic)]) != string(snapMagic) {
			return 0, corrupt("bad snapshot magic")
		}
		return len(snapMagic), nil
	}
	payload, err := cutFrame(c.path, c.off, data)
	if err == errTornFrame {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	switch {
	case c.sealed:
		return 0, corrupt("data after snapshot trailer")
	case len(payload) < 1:
		return 0, corrupt("empty snapshot frame")
	}
	body := payload[1:]
	switch payload[0] {
	case snapTagChunk:
		if len(body) < 8 {
			return 0, corrupt("short chunk header")
		}
		stamp := binary.LittleEndian.Uint64(body)
		count, n, err := readUvarint(body[8:])
		if err != nil {
			return 0, corrupt(err.Error())
		}
		body = body[8+n:]
		if count > uint64(len(body))+1 {
			// Keys are distinct and self-delimiting, so at most one of
			// them encodes to no bytes: a larger count cannot be real,
			// and would otherwise size recovery's op array.
			return 0, corrupt(fmt.Sprintf("chunk counts %d pairs in %d bytes", count, len(body)))
		}
		if fn != nil {
			if err := fn(c.off, stamp, count, body); err != nil {
				return 0, err
			}
		}
		c.total += count
	case snapTagTrailer:
		if len(body) != 24 {
			return 0, corrupt("bad trailer size")
		}
		if want := binary.LittleEndian.Uint64(body); want != c.total {
			return 0, corrupt(fmt.Sprintf("trailer records %d entries, file holds %d", want, c.total))
		}
		c.minStamp = binary.LittleEndian.Uint64(body[8:])
		c.maxStamp = binary.LittleEndian.Uint64(body[16:])
		c.sealed = true
	default:
		return 0, corrupt(fmt.Sprintf("unknown frame tag %d", payload[0]))
	}
	return frameHeaderLen + len(payload), nil
}

// end reports whether the bytes added form one whole snapshot: the
// magic, then frames up to a trailer, and nothing after it.
func (c *snapCheck) end() error {
	switch {
	case c.off == 0:
		return &CorruptionError{Path: c.path, Offset: 0, Reason: "bad snapshot magic"}
	case len(c.pending) > 0:
		return &CorruptionError{Path: c.path, Offset: c.off, Reason: "truncated snapshot frame"}
	case !c.sealed:
		return &CorruptionError{Path: c.path, Offset: c.off, Reason: "missing snapshot trailer"}
	}
	return nil
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
