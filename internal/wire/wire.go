// Package wire defines the skip hash's binary serving protocol: the
// length-prefixed, CRC-framed request/response codec spoken between
// cmd/skiphashd (internal/server) and skiphash/client.
//
// # Framing
//
// Every message is one frame, reusing the persist package's framing
// discipline: [u32 payload length][u32 CRC-32C of payload][payload],
// all little-endian. A frame whose checksum does not match, whose
// length field exceeds the reader's limit, or whose payload is cut
// short is a protocol violation — unlike the WAL's torn tail there is
// no tolerable anomaly on a live connection, so the peer tears the
// connection down.
//
// # Requests and responses
//
// A request payload is [u64 id][u8 op][op-specific body]; a response
// payload is [u64 id][u8 op][u8 status][body]. The id is an opaque
// per-connection sequence number chosen by the client; the server
// echoes it so pipelined responses can be matched to their requests.
// Responses to one connection's requests are written in request order,
// but clients must match by id, not position — that contract is what
// lets the transport evolve (out-of-order execution, server pushes)
// without a flag day.
//
// Keys and values are signed 64-bit integers (the paper evaluation's
// type, and the type every map in this repository is benchmarked at).
//
// # Operations
//
//	Get      key            -> ok, val
//	Insert   key, val       -> ok (inserted; absent-key contract)
//	Put      key, val       -> ok (replaced; upsert contract)
//	Del      key            -> ok (was present)
//	Range    lo, hi, max    -> pairs (key order; max 0 = no client
//	                           bound; servers truncate at MaxRangePairs
//	                           so the response fits one frame)
//	Batch    n steps        -> n step results, applied atomically
//	Sync                    -> force WAL fsync (durable servers)
//	Snapshot                -> write a durable snapshot now
//	Ping                    -> empty (liveness, RTT probes)
//	Watermark               -> current commit-stamp watermark (Val);
//	                           on a replica the applied stamp, on a
//	                           primary a fresh clock read
//	Promote                 -> make a replica writable (no-op body)
//	Stats                   -> server metrics in the Prometheus text
//	                           exposition format, one length-prefixed
//	                           blob (bounded by MaxStatsLen)
//
// # Replication channel
//
// Ops 10–14 (Follow, SnapChunk, WalRecord, CaughtUp, Heartbeat) belong
// to the primary→replica replication channel, which reuses this
// package's framing but speaks ReplMsg payloads (see repl.go), not the
// request/response codec — they never appear in ParseRequest or
// ParseResponse traffic. Watermark and Promote are ordinary serving
// ops so clients and operators can reach them over a normal
// connection.
//
// Batch is the wire face of the map's Atomic: its steps (insert,
// remove, lookup) execute as one transaction, so observers see all of
// a batch's effects or none.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/kv"
)

// KV is a key/value pair carried by Range responses.
type KV = kv.KV

// Op identifies a request's operation.
type Op uint8

// The protocol operations. The numeric values are the wire encoding
// and must never be reordered.
const (
	OpGet Op = iota + 1
	OpInsert
	OpPut
	OpDel
	OpRange
	OpBatch
	OpSync
	OpSnapshot
	OpPing
	// Replication-channel ops (ReplMsg payloads; never request/response).
	OpFollow
	OpSnapChunk
	OpWalRecord
	OpCaughtUp
	OpHeartbeat
	// Serving ops added with replication.
	OpWatermark
	OpPromote
	// The v2 frame family: namespace-addressed byte-string data ops and
	// namespace admin ops (see wire2.go for the encoding).
	OpGet2
	OpInsert2
	OpPut2
	OpDel2
	OpRange2
	OpBatch2
	OpSync2
	OpSnapshot2
	OpNsCreate
	OpNsDrop
	OpNsList
	// OpStats returns the server's metrics registry rendered in the
	// Prometheus text exposition format, as one length-prefixed blob
	// (the STATS2 op; see MaxStatsLen).
	OpStats
	// Ops 29 and 30 are reserved: they live-resized a map's shard count,
	// which is now fixed when the map is built. Keeping the slots keeps
	// them unknown to every parser, so an old client's frame tears its
	// connection down like any other unknown op.
	_
	_
)

// IsV2Data reports whether op is a namespace-addressed v2 data op (its
// body begins with a namespace id). Admin ops address namespaces by name
// and are not data ops.
func (o Op) IsV2Data() bool {
	return o >= OpGet2 && o <= OpSnapshot2
}

// Kind is what an op asks of the map it addresses, with the frame
// family factored out: OpGet and OpGet2 are both KindGet and differ only
// in which Request fields carry the key. The server's executor runs on
// kinds; the family matters only to the codec that reads the fields.
type Kind uint8

// The op kinds. KindGet through KindBatch are the point operations the
// server coalesces into transactions; the rest execute one at a time.
const (
	// KindNone marks ops that address no map: Ping, Stats, the namespace
	// admin ops and the replication channel.
	KindNone Kind = iota
	KindGet
	KindInsert
	KindPut
	KindDel
	KindBatch
	KindRange
	KindSync
	KindSnapshot
	KindWatermark
	KindPromote
)

// Coalesces reports whether ops of this kind join coalesced runs.
func (k Kind) Coalesces() bool { return k >= KindGet && k <= KindBatch }

// ops is the one table of what the protocol knows about each op code:
// its name and its kind.
var ops = [...]struct {
	name string
	kind Kind
}{
	OpGet:       {"Get", KindGet},
	OpInsert:    {"Insert", KindInsert},
	OpPut:       {"Put", KindPut},
	OpDel:       {"Del", KindDel},
	OpRange:     {"Range", KindRange},
	OpBatch:     {"Batch", KindBatch},
	OpSync:      {"Sync", KindSync},
	OpSnapshot:  {"Snapshot", KindSnapshot},
	OpPing:      {"Ping", KindNone},
	OpFollow:    {"Follow", KindNone},
	OpSnapChunk: {"SnapChunk", KindNone},
	OpWalRecord: {"WalRecord", KindNone},
	OpCaughtUp:  {"CaughtUp", KindNone},
	OpHeartbeat: {"Heartbeat", KindNone},
	OpWatermark: {"Watermark", KindWatermark},
	OpPromote:   {"Promote", KindPromote},
	OpGet2:      {"Get2", KindGet},
	OpInsert2:   {"Insert2", KindInsert},
	OpPut2:      {"Put2", KindPut},
	OpDel2:      {"Del2", KindDel},
	OpRange2:    {"Range2", KindRange},
	OpBatch2:    {"Batch2", KindBatch},
	OpSync2:     {"Sync2", KindSync},
	OpSnapshot2: {"Snapshot2", KindSnapshot},
	OpNsCreate:  {"NsCreate", KindNone},
	OpNsDrop:    {"NsDrop", KindNone},
	OpNsList:    {"NsList", KindNone},
	OpStats:     {"Stats", KindNone},
}

// Kind reports op's kind; KindNone for codes the protocol does not know.
func (o Op) Kind() Kind {
	if int(o) < len(ops) {
		return ops[o].kind
	}
	return KindNone
}

// String names the op for diagnostics.
func (o Op) String() string {
	if int(o) < len(ops) && ops[o].name != "" {
		return ops[o].name
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Status is a response's outcome code.
type Status uint8

// Response statuses. Non-OK statuses carry a human-readable message in
// place of the op's result body; the client package maps them back to
// the typed errors the embedded map returns (skiphash.ErrNotDurable,
// skiphash.ErrCorrupt).
const (
	// StatusOK is success; the body is the op's result.
	StatusOK Status = iota
	// Status 1 is reserved: it reported a batch spanning isolated
	// shards, which no map has any more. Keeping the slot keeps every
	// other status's number on the wire.
	_
	// StatusNotDurable mirrors skiphash.ErrNotDurable: Sync/Snapshot on
	// a server whose map has no durability attached.
	StatusNotDurable
	// StatusCorrupt mirrors skiphash.ErrCorrupt: the durability engine
	// refused an operation over corrupt data.
	StatusCorrupt
	// StatusBusy is sent (with id 0) to a connection rejected by the
	// server's connection limit before the server closes it.
	StatusBusy
	// StatusShuttingDown reports the server is draining and the request
	// was not executed.
	StatusShuttingDown
	// StatusErr is any other server-side failure; the message tells.
	StatusErr
	// StatusReadOnly reports a write (or Sync/Snapshot) sent to a
	// replica that has not been promoted; the client maps it to its
	// ErrReadOnly.
	StatusReadOnly
	// StatusNsNotFound reports a v2 op addressed to a namespace id or
	// name the server does not know; the client maps it to
	// ErrNamespaceNotFound.
	StatusNsNotFound
	// StatusNsExists reports an NsCreate whose name is already taken;
	// the client maps it to ErrNamespaceExists.
	StatusNsExists
)

var statusNames = [...]string{
	StatusOK: "OK", StatusNotDurable: "NotDurable",
	StatusCorrupt: "Corrupt", StatusBusy: "Busy", StatusShuttingDown: "ShuttingDown",
	StatusErr: "Err", StatusReadOnly: "ReadOnly", StatusNsNotFound: "NsNotFound",
	StatusNsExists: "NsExists",
}

// String names the status for diagnostics.
func (s Status) String() string {
	if int(s) < len(statusNames) && statusNames[s] != "" {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Step kinds inside a Batch, matching internal/linearize's batch step
// vocabulary so served histories check against the same model.
const (
	StepInsert uint8 = iota
	StepRemove
	StepLookup
)

// Step is one primitive of an atomic batch request.
type Step struct {
	Kind uint8
	Key  int64
	Val  int64 // StepInsert only
}

// StepResult is one step's outcome: Ok is the insert/remove success or
// lookup presence, Out the looked-up value.
type StepResult struct {
	Ok  bool
	Out int64
}

// Request is a decoded request frame.
type Request struct {
	ID uint64
	Op Op
	// Key, Val are the point-op arguments; Range uses Key=lo, Val=hi.
	Key, Val int64
	// Max bounds a Range's result count (0 = unbounded); Range2 reuses
	// it with the same meaning.
	Max uint32
	// Steps is a Batch's body.
	Steps []Step

	// NS addresses a v2 data op's namespace.
	NS uint32
	// BKey, BVal are the v2 point-op arguments; Range2 uses BKey=lo,
	// BVal=hi.
	BKey, BVal []byte
	// NoHi marks a Range2 with no upper bound (BVal is then ignored).
	NoHi bool
	// BSteps is a Batch2's body.
	BSteps []BStep
	// Name, Durable, Fsync are the NsCreate/NsDrop arguments.
	Name    string
	Durable bool
	Fsync   uint8
}

// Response is a decoded response frame.
type Response struct {
	ID     uint64
	Op     Op
	Status Status
	// Ok/Val are the point-op results (Get: Val, Ok; Insert/Put/Del: Ok).
	Ok  bool
	Val int64
	// Pairs is a Range result, in key order.
	Pairs []KV
	// Steps is a Batch result, one entry per request step.
	Steps []StepResult
	// Msg describes a non-OK status.
	Msg string

	// BVal is a Get2 result's value (present only when Ok).
	BVal []byte
	// BPairs is a Range2 result, in lexicographic key order.
	BPairs []BKV
	// BSteps is a Batch2 result, one entry per request step.
	BSteps []BStepResult
	// NsID is an NsCreate result's assigned namespace id.
	NsID uint32
	// Namespaces is an NsList result.
	Namespaces []NsInfo
}

// Err converts a non-OK status into an error-shaped description; the
// client package wraps it into its typed errors. Nil for StatusOK.
func (r *Response) Err() error {
	if r.Status == StatusOK {
		return nil
	}
	if r.Msg != "" {
		return fmt.Errorf("wire: %s: %s", r.Status, r.Msg)
	}
	return fmt.Errorf("wire: %s", r.Status)
}

// Framing limits. Requests are small (a batch is bounded by
// MaxBatchSteps); responses carry range results and get more headroom.
// Both are hard protocol constants so a corrupted or hostile length
// field cannot drive a huge allocation.
const (
	frameHeaderLen = 8
	// MaxRequestPayload bounds a request frame's payload.
	MaxRequestPayload = 1 << 20
	// MaxResponsePayload bounds a response frame's payload.
	MaxResponsePayload = 1 << 28
	// MaxBatchSteps bounds the steps of one Batch request. A maximal
	// all-insert batch (17 bytes per step plus the 13-byte request
	// prologue) must still fit MaxRequestPayload, so every batch the
	// limit admits is also encodable as a legal frame.
	MaxBatchSteps = 1 << 15
	// MaxRangePairs bounds one Range response so it always fits a
	// single frame (16 bytes per pair plus header slack under
	// MaxResponsePayload). The server truncates longer results to it;
	// clients wanting more paginate, resuming from their last key + 1.
	MaxRangePairs = (MaxResponsePayload - 64) / 16
	// MaxStatsLen bounds a Stats response's exposition blob. Far above
	// any real registry render, but a hard cap so a corrupted length
	// cannot drive a huge allocation.
	MaxStatsLen = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ProtocolError reports a framing or encoding violation. Either side
// receiving one must consider the connection unusable: after a bad
// frame there is no way to find the next frame boundary.
type ProtocolError struct{ Reason string }

// Error implements error.
func (e *ProtocolError) Error() string { return "wire: protocol error: " + e.Reason }

func protoErrf(format string, args ...any) error {
	return &ProtocolError{Reason: fmt.Sprintf(format, args...)}
}

// --- Encoding -----------------------------------------------------------

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendI64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// beginFrame reserves the 8-byte frame header; finishFrame completes it
// once the payload has been appended (the persist package's idiom).
func beginFrame(dst []byte) ([]byte, int) {
	start := len(dst)
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), start
}

func finishFrame(dst []byte, headerStart int) []byte {
	payload := dst[headerStart+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[headerStart:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[headerStart+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// AppendRequest appends req as one complete frame to dst.
func AppendRequest(dst []byte, req *Request) []byte {
	dst, hdr := beginFrame(dst)
	dst = appendU64(dst, req.ID)
	dst = append(dst, byte(req.Op))
	switch req.Op {
	case OpGet, OpDel:
		dst = appendI64(dst, req.Key)
	case OpInsert, OpPut:
		dst = appendI64(dst, req.Key)
		dst = appendI64(dst, req.Val)
	case OpRange:
		dst = appendI64(dst, req.Key)
		dst = appendI64(dst, req.Val)
		dst = appendU32(dst, req.Max)
	case OpBatch:
		dst = appendU32(dst, uint32(len(req.Steps)))
		for _, s := range req.Steps {
			dst = append(dst, s.Kind)
			dst = appendI64(dst, s.Key)
			if s.Kind == StepInsert {
				dst = appendI64(dst, s.Val)
			}
		}
	case OpSync, OpSnapshot, OpPing, OpWatermark, OpPromote, OpStats:
		// no body
	case OpGet2, OpInsert2, OpPut2, OpDel2, OpRange2, OpBatch2, OpSync2, OpSnapshot2,
		OpNsCreate, OpNsDrop, OpNsList:
		dst = appendRequest2(dst, req)
	}
	return finishFrame(dst, hdr)
}

// AppendResponse appends resp as one complete frame to dst.
func AppendResponse(dst []byte, resp *Response) []byte {
	dst, hdr := beginFrame(dst)
	dst = appendU64(dst, resp.ID)
	dst = append(dst, byte(resp.Op))
	dst = append(dst, byte(resp.Status))
	if resp.Status != StatusOK {
		dst = appendU32(dst, uint32(len(resp.Msg)))
		dst = append(dst, resp.Msg...)
		return finishFrame(dst, hdr)
	}
	switch resp.Op {
	case OpGet:
		dst = appendBool(dst, resp.Ok)
		dst = appendI64(dst, resp.Val)
	case OpInsert, OpPut, OpDel:
		dst = appendBool(dst, resp.Ok)
	case OpRange:
		dst = appendU32(dst, uint32(len(resp.Pairs)))
		for _, p := range resp.Pairs {
			dst = appendI64(dst, p.Key)
			dst = appendI64(dst, p.Val)
		}
	case OpBatch:
		dst = appendU32(dst, uint32(len(resp.Steps)))
		for _, s := range resp.Steps {
			dst = appendBool(dst, s.Ok)
			dst = appendI64(dst, s.Out)
		}
	case OpWatermark:
		// The watermark stamp travels in Val.
		dst = appendI64(dst, resp.Val)
	case OpSync, OpSnapshot, OpPing, OpPromote:
		// no body
	case OpStats:
		dst = appendBytes(dst, resp.BVal)
	case OpGet2, OpInsert2, OpPut2, OpDel2, OpRange2, OpBatch2, OpSync2, OpSnapshot2,
		OpNsCreate, OpNsDrop, OpNsList:
		dst = appendResponse2(dst, resp)
	}
	return finishFrame(dst, hdr)
}

// --- Decoding -----------------------------------------------------------

// decoder is a bounds-checked cursor over one payload.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = protoErrf("truncated payload reading %s at offset %d", what, d.off)
	}
}

func (d *decoder) u8(what string) uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail(what)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u32(what string) uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64(what string) uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64(what string) int64 { return int64(d.u64(what)) }

// bool8 reads a boolean byte strictly: only 0 and 1 are legal, so every
// accepted payload re-encodes canonically (a fuzz-checked property).
func (d *decoder) bool8(what string) bool {
	v := d.u8(what)
	if d.err == nil && v > 1 {
		d.err = protoErrf("boolean %s encoded as %d", what, v)
	}
	return v != 0
}

func (d *decoder) bytes(n int, what string) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return protoErrf("%d trailing bytes after payload", len(d.buf)-d.off)
	}
	return nil
}

// ParseRequest decodes one request payload. The returned request's
// Steps alias payload-derived memory only by value (they are copied),
// so the frame buffer may be reused immediately.
func ParseRequest(payload []byte) (Request, error) {
	d := decoder{buf: payload}
	var req Request
	req.ID = d.u64("id")
	req.Op = Op(d.u8("op"))
	switch req.Op {
	case OpGet, OpDel:
		req.Key = d.i64("key")
	case OpInsert, OpPut:
		req.Key = d.i64("key")
		req.Val = d.i64("val")
	case OpRange:
		req.Key = d.i64("lo")
		req.Val = d.i64("hi")
		req.Max = d.u32("max")
	case OpBatch:
		n := d.u32("step count")
		if n > MaxBatchSteps {
			return req, protoErrf("batch of %d steps exceeds limit %d", n, MaxBatchSteps)
		}
		if d.err == nil {
			req.Steps = make([]Step, 0, n)
		}
		for i := uint32(0); i < n && d.err == nil; i++ {
			var s Step
			s.Kind = d.u8("step kind")
			if s.Kind > StepLookup {
				return req, protoErrf("unknown batch step kind %d", s.Kind)
			}
			s.Key = d.i64("step key")
			if s.Kind == StepInsert {
				s.Val = d.i64("step val")
			}
			req.Steps = append(req.Steps, s)
		}
	case OpSync, OpSnapshot, OpPing, OpWatermark, OpPromote, OpStats:
		// no body
	case OpGet2, OpInsert2, OpPut2, OpDel2, OpRange2, OpBatch2, OpSync2, OpSnapshot2,
		OpNsCreate, OpNsDrop, OpNsList:
		parseRequest2(&d, &req)
	default:
		return req, protoErrf("unknown op %d", uint8(req.Op))
	}
	return req, d.finish()
}

// ParseResponse decodes one response payload. Pairs and Steps are
// copied out of the frame buffer.
func ParseResponse(payload []byte) (Response, error) {
	d := decoder{buf: payload}
	var resp Response
	resp.ID = d.u64("id")
	resp.Op = Op(d.u8("op"))
	resp.Status = Status(d.u8("status"))
	if resp.Status > StatusNsExists {
		return resp, protoErrf("unknown status %d", uint8(resp.Status))
	}
	if resp.Status != StatusOK {
		n := d.u32("message length")
		resp.Msg = string(d.bytes(int(n), "message"))
		return resp, d.finish()
	}
	switch resp.Op {
	case OpGet:
		resp.Ok = d.bool8("ok")
		resp.Val = d.i64("val")
	case OpInsert, OpPut, OpDel:
		resp.Ok = d.bool8("ok")
	case OpRange:
		n := d.u32("pair count")
		// Each pair is 16 bytes; the framing limit already bounds n, but
		// cross-check before allocating.
		if int64(n)*16 > int64(len(payload)) {
			return resp, protoErrf("pair count %d exceeds payload", n)
		}
		resp.Pairs = make([]KV, 0, n)
		for i := uint32(0); i < n && d.err == nil; i++ {
			k := d.i64("pair key")
			v := d.i64("pair val")
			resp.Pairs = append(resp.Pairs, KV{Key: k, Val: v})
		}
	case OpBatch:
		n := d.u32("result count")
		if n > MaxBatchSteps {
			return resp, protoErrf("batch of %d results exceeds limit %d", n, MaxBatchSteps)
		}
		if d.err == nil {
			resp.Steps = make([]StepResult, 0, n)
		}
		for i := uint32(0); i < n && d.err == nil; i++ {
			ok := d.bool8("result ok")
			out := d.i64("result out")
			resp.Steps = append(resp.Steps, StepResult{Ok: ok, Out: out})
		}
	case OpWatermark:
		resp.Val = d.i64("watermark")
	case OpSync, OpSnapshot, OpPing, OpPromote:
		// no body
	case OpStats:
		resp.BVal = d.bstr(MaxStatsLen, "stats")
	case OpGet2, OpInsert2, OpPut2, OpDel2, OpRange2, OpBatch2, OpSync2, OpSnapshot2,
		OpNsCreate, OpNsDrop, OpNsList:
		parseResponse2(&d, &resp)
	default:
		return resp, protoErrf("unknown op %d", uint8(resp.Op))
	}
	return resp, d.finish()
}

// --- Frame transport ----------------------------------------------------

// FrameReader reads frames off a stream, verifying length bounds and
// checksums. The returned payload aliases an internal buffer that is
// valid only until the next call.
type FrameReader struct {
	r   io.Reader
	br  *bufio.Reader // r when it is one; Ready peeks through it
	max uint32
	hdr [frameHeaderLen]byte
	buf []byte
}

// NewFrameReader wraps r with a frame reader enforcing the given
// payload limit (MaxRequestPayload on servers, MaxResponsePayload on
// clients).
func NewFrameReader(r io.Reader, maxPayload uint32) *FrameReader {
	br, _ := r.(*bufio.Reader)
	return &FrameReader{r: r, br: br, max: maxPayload}
}

// Ready reports, without reading from the underlying stream, whether
// Next would return without blocking: a whole frame is already buffered,
// or a header announcing an over-limit length is (Next then reports the
// protocol error). It is false for a partial frame, and always for a
// reader that is not a *bufio.Reader.
func (fr *FrameReader) Ready() bool {
	if fr.br == nil || fr.br.Buffered() < frameHeaderLen {
		return false
	}
	hdr, _ := fr.br.Peek(frameHeaderLen) // buffered: cannot block or fail
	ln := binary.LittleEndian.Uint32(hdr[:4])
	return ln > fr.max || fr.br.Buffered()-frameHeaderLen >= int(ln)
}

// Next reads one frame and returns its verified payload. io.EOF is
// returned untouched on a clean boundary; a partial frame surfaces as
// io.ErrUnexpectedEOF; framing violations as *ProtocolError.
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	ln := binary.LittleEndian.Uint32(fr.hdr[:4])
	want := binary.LittleEndian.Uint32(fr.hdr[4:])
	if ln > fr.max {
		return nil, protoErrf("frame length %d exceeds limit %d", ln, fr.max)
	}
	if cap(fr.buf) < int(ln) {
		fr.buf = make([]byte, ln)
	}
	payload := fr.buf[:ln]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, protoErrf("frame checksum mismatch: stored %08x, computed %08x", want, got)
	}
	return payload, nil
}
