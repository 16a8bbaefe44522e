package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Framing shared by WAL segments and snapshot files: every record is
// [u32 payload length][u32 CRC-32C of payload][payload]. Files open with
// an 8-byte magic identifying their kind and format version.

const (
	frameHeaderLen = 8
	// maxFramePayload bounds a single frame so a corrupted length field
	// cannot drive a multi-gigabyte allocation during recovery.
	maxFramePayload = 1 << 28
)

var (
	walMagic  = []byte("SKHWAL1\n")
	snapMagic = []byte("SKHSNP1\n")

	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// ErrCorrupt is the sentinel matched (via errors.Is) by every
// *CorruptionError recovery returns.
var ErrCorrupt = errors.New("persist: corrupt data")

// CorruptionError reports exactly where recovery refused to proceed. It
// is returned for checksum mismatches, framing violations, and decode
// failures anywhere recovery is not allowed to tolerate them (a torn
// frame at the very tail of the newest WAL segment is the one tolerated
// anomaly — an expected crash artifact, not corruption).
type CorruptionError struct {
	// Path is the offending file.
	Path string
	// Offset is the byte offset of the frame (or header) at fault.
	Offset int64
	// Reason describes the violation.
	Reason string
}

// Error implements error.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("persist: corrupt data in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Is reports a match against ErrCorrupt.
func (e *CorruptionError) Is(target error) bool { return target == ErrCorrupt }

// finishFrame completes the frame whose header beginFrame reserved at
// headerStart: the payload is everything appended to dst after it.
func finishFrame(dst []byte, headerStart int) []byte {
	payload := dst[headerStart+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[headerStart:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[headerStart+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// beginFrame reserves a frame header in dst and returns the extended
// slice plus the header's offset, to be completed by finishFrame once
// the payload has been appended.
func beginFrame(dst []byte) ([]byte, int) {
	start := len(dst)
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), start
}

// errTornFrame marks an incomplete frame at the end of the data: either
// a header extending past EOF or a payload shorter than its declared
// length. Whether that is tolerable (tail of the newest WAL segment) or
// corruption (anywhere else) is the caller's decision.
var errTornFrame = errors.New("persist: torn frame at end of file")

// cutFrame checks the frame at the front of rest, which starts at
// offset off of path, and returns its payload: errTornFrame when rest
// ends inside the frame, a *CorruptionError for an absurd length or a
// checksum mismatch.
func cutFrame(path string, off int64, rest []byte) ([]byte, error) {
	if len(rest) < frameHeaderLen {
		return nil, errTornFrame
	}
	ln := binary.LittleEndian.Uint32(rest)
	if ln > maxFramePayload {
		return nil, &CorruptionError{Path: path, Offset: off,
			Reason: fmt.Sprintf("frame length %d exceeds limit", ln)}
	}
	if int64(len(rest)-frameHeaderLen) < int64(ln) {
		return nil, errTornFrame
	}
	payload := rest[frameHeaderLen : frameHeaderLen+int(ln)]
	want := binary.LittleEndian.Uint32(rest[4:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, &CorruptionError{Path: path, Offset: off,
			Reason: fmt.Sprintf("checksum mismatch: stored %08x, computed %08x", want, got)}
	}
	return payload, nil
}
