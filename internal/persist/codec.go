// Package persist is the durability subsystem of the skip hash: a
// write-ahead log of logical operations ordered by STM commit stamp,
// clock-consistent snapshots taken while writers proceed, and crash
// recovery that reconstructs the map from the newest valid snapshot plus
// the strictly-newer tail of the log.
//
// # Why commit stamps make this easy
//
// Every committed writing transaction of the STM runtime already carries
// a totally-ordered commit timestamp — the global-version clock the
// paper's design rests on. The WAL records a transaction's logical
// effect (the puts and deletes that actually changed state) tagged with
// that stamp, captured at the stm.Tx.OnPublish observation point, i.e.
// while the transaction still holds every orec it wrote. Two conflicting
// transactions therefore append in commit order, so file order breaks
// stamp ties exactly as the real serialization did. A snapshot is a
// sequence of chunked read-only transactions, each chunk tagged with its
// start stamp; a chunk is a consistent view of its keys as of that
// stamp. Recovery decodes the snapshot entries (each stamped with its
// chunk's stamp) and every logged op into one flat array, sorts it once
// by (key, stamp, decode order), and keeps each key's last op: an op the
// key's chunk already reflects sorts before the snapshot entry, a newer
// one after it, and file order resolves stamp ties — the same clock
// trick Jiffy uses for its batch snapshots. The pairs come out sorted,
// ready for a bulk load. A replica's full resync is the same fold over
// the same bytes: the primary streams a snapshot file followed by log
// frames, and the replica checks and folds them as they arrive (Fold).
//
// # On-disk layout
//
// A durable map owns a directory holding WAL segments (wal-<seq>.seg)
// and snapshots (snap-<seq>.snap), both built from CRC-framed records:
// a 4-byte little-endian payload length, a 4-byte CRC-32C of the
// payload, then the payload. A torn frame at the tail of the newest
// segment (a crash mid-write) is tolerated and truncated; any other
// framing or checksum violation fails recovery with a *CorruptionError
// rather than loading wrong data.
package persist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Codec serializes keys or values of a durable map. Append must be a
// self-delimiting encoding (Read can find its own end); Read returns the
// decoded value and how many bytes it consumed.
type Codec[T any] struct {
	// Append appends the encoding of v to dst and returns the extended
	// slice.
	Append func(dst []byte, v T) []byte
	// Read decodes one value from the front of src, returning it and the
	// number of bytes consumed.
	Read func(src []byte) (v T, n int, err error)
}

// Int64Codec encodes int64 as 8 little-endian bytes.
func Int64Codec() Codec[int64] {
	return Codec[int64]{
		Append: func(dst []byte, v int64) []byte {
			return binary.LittleEndian.AppendUint64(dst, uint64(v))
		},
		Read: func(src []byte) (int64, int, error) {
			if len(src) < 8 {
				return 0, 0, fmt.Errorf("persist: int64 needs 8 bytes, have %d", len(src))
			}
			return int64(binary.LittleEndian.Uint64(src)), 8, nil
		},
	}
}

// Float64Codec encodes float64 as its IEEE 754 bits, little-endian.
func Float64Codec() Codec[float64] {
	return Codec[float64]{
		Append: func(dst []byte, v float64) []byte {
			return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		},
		Read: func(src []byte) (float64, int, error) {
			if len(src) < 8 {
				return 0, 0, fmt.Errorf("persist: float64 needs 8 bytes, have %d", len(src))
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(src)), 8, nil
		},
	}
}

// BytesCodec encodes a byte slice as a uvarint length prefix plus the
// bytes. Read copies the payload out of src: recovery decodes from
// whole-file buffers and inserts the values into the map, so an aliasing
// slice would pin an entire snapshot or WAL segment in memory for as
// long as one of its values stays live.
func BytesCodec() Codec[[]byte] {
	return Codec[[]byte]{
		Append: func(dst []byte, v []byte) []byte {
			dst = binary.AppendUvarint(dst, uint64(len(v)))
			return append(dst, v...)
		},
		Read: func(src []byte) ([]byte, int, error) {
			ln, n, err := readUvarint(src)
			if err != nil {
				return nil, 0, err
			}
			if uint64(len(src)-n) < ln {
				return nil, 0, fmt.Errorf("persist: bytes length %d exceeds remaining %d", ln, len(src)-n)
			}
			out := make([]byte, ln)
			copy(out, src[n:n+int(ln)])
			return out, n + int(ln), nil
		},
	}
}

// StringCodec encodes a string as a uvarint length prefix plus its
// bytes. The string conversion in Read is itself the copy out of the
// recovery buffer.
func StringCodec() Codec[string] {
	return Codec[string]{
		Append: func(dst []byte, v string) []byte {
			dst = binary.AppendUvarint(dst, uint64(len(v)))
			return append(dst, v...)
		},
		Read: func(src []byte) (string, int, error) {
			ln, n, err := readUvarint(src)
			if err != nil {
				return "", 0, err
			}
			if uint64(len(src)-n) < ln {
				return "", 0, fmt.Errorf("persist: string length %d exceeds remaining %d", ln, len(src)-n)
			}
			return string(src[n : n+int(ln)]), n + int(ln), nil
		},
	}
}

// readUvarint decodes a uvarint from src, rejecting truncated input.
func readUvarint(src []byte) (uint64, int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("persist: bad uvarint")
	}
	return v, n, nil
}

// KV is a recovered or snapshotted key/value pair.
type KV[K comparable, V any] struct {
	Key K
	Val V
}
