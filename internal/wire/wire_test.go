package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
)

// roundTripRequest encodes req, walks it back through the frame reader
// and parser, and returns the decoded copy.
func roundTripRequest(t *testing.T, req Request) Request {
	t.Helper()
	frame := AppendRequest(nil, &req)
	fr := NewFrameReader(bytes.NewReader(frame), MaxRequestPayload)
	payload, err := fr.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	got, err := ParseRequest(payload)
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	return got
}

func roundTripResponse(t *testing.T, resp Response) Response {
	t.Helper()
	frame := AppendResponse(nil, &resp)
	fr := NewFrameReader(bytes.NewReader(frame), MaxResponsePayload)
	payload, err := fr.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	got, err := ParseResponse(payload)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{ID: 1, Op: OpGet, Key: 42},
		{ID: 2, Op: OpInsert, Key: math.MinInt64, Val: math.MaxInt64},
		{ID: 3, Op: OpPut, Key: -7, Val: 70},
		{ID: 4, Op: OpDel, Key: 9},
		{ID: 5, Op: OpRange, Key: -100, Val: 100, Max: 17},
		{ID: 6, Op: OpBatch, Steps: []Step{
			{Kind: StepInsert, Key: 1, Val: 10},
			{Kind: StepRemove, Key: 2},
			{Kind: StepLookup, Key: 3},
		}},
		{ID: 7, Op: OpSync},
		{ID: 8, Op: OpSnapshot},
		{ID: math.MaxUint64, Op: OpPing},
		{ID: 9, Op: OpFollow, Key: math.MinInt64, Val: 1 << 40},
	}
	for _, req := range reqs {
		got := roundTripRequest(t, req)
		if got.ID != req.ID || got.Op != req.Op || got.Key != req.Key ||
			got.Val != req.Val || got.Max != req.Max || len(got.Steps) != len(req.Steps) {
			t.Fatalf("%s: round trip %+v -> %+v", req.Op, req, got)
		}
		for i := range req.Steps {
			if got.Steps[i] != req.Steps[i] {
				t.Fatalf("%s: step %d %+v -> %+v", req.Op, i, req.Steps[i], got.Steps[i])
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{ID: 1, Op: OpGet, Ok: true, Val: -5},
		{ID: 2, Op: OpGet, Ok: false},
		{ID: 3, Op: OpInsert, Ok: true},
		{ID: 4, Op: OpDel, Ok: false},
		{ID: 5, Op: OpRange, Pairs: []KV{{Key: 1, Val: 10}, {Key: 2, Val: 20}}},
		{ID: 6, Op: OpRange, Pairs: nil},
		{ID: 7, Op: OpBatch, Steps: []StepResult{{Ok: true, Out: 0}, {Ok: false, Out: 33}}},
		{ID: 8, Op: OpSync},
		{ID: 9, Op: OpPing},
		{ID: 14, Op: OpFollow},
		{ID: 15, Op: OpFollow, Status: StatusErr, Msg: "server does not stream its log"},
		{ID: 10, Op: OpBatch, Status: StatusReadOnly, Msg: "replica"},
		{ID: 11, Op: OpSync, Status: StatusNotDurable, Msg: "no durability"},
		{ID: 12, Op: OpGet, Status: StatusShuttingDown},
		{ID: 13, Op: OpPut, Status: StatusErr, Msg: "backend failure"},
	}
	for _, resp := range resps {
		got := roundTripResponse(t, resp)
		if got.ID != resp.ID || got.Op != resp.Op || got.Status != resp.Status ||
			got.Ok != resp.Ok || got.Val != resp.Val || got.Msg != resp.Msg ||
			len(got.Pairs) != len(resp.Pairs) || len(got.Steps) != len(resp.Steps) {
			t.Fatalf("round trip %+v -> %+v", resp, got)
		}
		for i := range resp.Pairs {
			if got.Pairs[i] != resp.Pairs[i] {
				t.Fatalf("pair %d: %+v -> %+v", i, resp.Pairs[i], got.Pairs[i])
			}
		}
		for i := range resp.Steps {
			if got.Steps[i] != resp.Steps[i] {
				t.Fatalf("step %d: %+v -> %+v", i, resp.Steps[i], got.Steps[i])
			}
		}
	}
}

func TestPipelinedFrames(t *testing.T) {
	var stream []byte
	for i := uint64(1); i <= 100; i++ {
		stream = AppendRequest(stream, &Request{ID: i, Op: OpGet, Key: int64(i)})
	}
	fr := NewFrameReader(bytes.NewReader(stream), MaxRequestPayload)
	for i := uint64(1); i <= 100; i++ {
		payload, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		req, err := ParseRequest(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if req.ID != i || req.Key != int64(i) {
			t.Fatalf("frame %d decoded as %+v", i, req)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestCorruptFrameRejected(t *testing.T) {
	frame := AppendRequest(nil, &Request{ID: 1, Op: OpInsert, Key: 5, Val: 50})
	for _, bit := range []int{0, 35, 60} {
		mutated := bytes.Clone(frame)
		mutated[len(mutated)-1-bit%8] ^= 1 << (bit % 8)
		// Flipping length bytes may turn into a short read instead of a
		// checksum error; both must reject, never decode silently.
		fr := NewFrameReader(bytes.NewReader(mutated), MaxRequestPayload)
		payload, err := fr.Next()
		if err == nil {
			if _, perr := ParseRequest(payload); perr == nil {
				if !bytes.Equal(payload, frame[frameHeaderLen:]) {
					t.Fatalf("bit %d: corrupt frame decoded to different payload", bit)
				}
			}
		}
	}
	// Deterministic checksum violation: flip a payload byte only.
	mutated := bytes.Clone(frame)
	mutated[frameHeaderLen] ^= 0xff
	fr := NewFrameReader(bytes.NewReader(mutated), MaxRequestPayload)
	if _, err := fr.Next(); err == nil {
		t.Fatal("payload bit flip not caught by checksum")
	} else {
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("want *ProtocolError, got %v", err)
		}
	}
}

func TestTruncatedFrame(t *testing.T) {
	frame := AppendRequest(nil, &Request{ID: 1, Op: OpRange, Key: 0, Val: 100, Max: 3})
	for cut := 1; cut < len(frame); cut++ {
		fr := NewFrameReader(bytes.NewReader(frame[:cut]), MaxRequestPayload)
		if _, err := fr.Next(); err == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", cut, len(frame))
		}
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], MaxRequestPayload+1)
	fr := NewFrameReader(bytes.NewReader(hdr[:]), MaxRequestPayload)
	_, err := fr.Next()
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("oversized frame: want *ProtocolError, got %v", err)
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	req := Request{ID: 9, Op: OpGet, Key: 1}
	frame := AppendRequest(nil, &req)
	payload := append(bytes.Clone(frame[frameHeaderLen:]), 0xAB)
	if _, err := ParseRequest(payload); err == nil {
		t.Fatal("trailing bytes not rejected")
	}
}

func TestUnknownOpRejected(t *testing.T) {
	frame := AppendRequest(nil, &Request{ID: 1, Op: OpPing})
	payload := bytes.Clone(frame[frameHeaderLen:])
	payload[8] = 0xEE // op byte
	if _, err := ParseRequest(payload); err == nil {
		t.Fatal("unknown op not rejected")
	}
}

// TestWireNumbering pins every op and status code to its number: the
// numbers are the encoding, so renumbering one breaks every deployed
// peer. Retired codes stay reserved — they parse as unknown ops.
func TestWireNumbering(t *testing.T) {
	opCodes := []struct {
		op   Op
		code uint8
	}{
		{OpGet, 1}, {OpInsert, 2}, {OpPut, 3}, {OpDel, 4}, {OpRange, 5},
		{OpBatch, 6}, {OpSync, 7}, {OpSnapshot, 8}, {OpPing, 9},
		{OpFollow, 10}, {OpSnapChunk, 11}, {OpWalRecord, 12},
		{OpHeartbeat, 14}, {OpWatermark, 15}, {OpPromote, 16},
		{OpGet2, 17}, {OpInsert2, 18}, {OpPut2, 19}, {OpDel2, 20},
		{OpRange2, 21}, {OpBatch2, 22}, {OpSync2, 23}, {OpSnapshot2, 24},
		{OpNsCreate, 25}, {OpNsDrop, 26}, {OpNsList, 27}, {OpStats, 28},
	}
	for _, c := range opCodes {
		if uint8(c.op) != c.code {
			t.Errorf("%s = %d, want %d", c.op, uint8(c.op), c.code)
		}
	}
	statusCodes := []struct {
		status Status
		code   uint8
	}{
		{StatusOK, 0}, {StatusNotDurable, 2}, {StatusCorrupt, 3}, {StatusBusy, 4},
		{StatusShuttingDown, 5}, {StatusErr, 6}, {StatusReadOnly, 7},
		{StatusNsNotFound, 8}, {StatusNsExists, 9},
	}
	for _, c := range statusCodes {
		if uint8(c.status) != c.code {
			t.Errorf("%s = %d, want %d", c.status, uint8(c.status), c.code)
		}
	}
	for _, code := range []uint8{13, 29, 30} {
		op := Op(code)
		if got, want := op.String(), fmt.Sprintf("Op(%d)", code); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", code, got, want)
		}
		if op.Kind() != KindNone || op.IsV2Data() {
			t.Errorf("Op(%d) has kind %d, v2 data %v; want an unknown op", code, op.Kind(), op.IsV2Data())
		}
		payload := appendU64(nil, 1)
		payload = append(payload, code)
		payload = appendI64(payload, 16) // a retired body: a shard count or a stamp
		var pe *ProtocolError
		if _, err := ParseRequest(payload); !errors.As(err, &pe) {
			t.Errorf("ParseRequest(op %d) = %v, want a protocol error", code, err)
		}
		resp := appendU64(nil, 1)
		resp = append(resp, code, byte(StatusOK))
		resp = appendI64(resp, 16)
		if _, err := ParseResponse(resp); !errors.As(err, &pe) {
			t.Errorf("ParseResponse(op %d) = %v, want a protocol error", code, err)
		}
	}
}

func TestBatchStepLimit(t *testing.T) {
	var payload []byte
	payload = appendU64(payload, 1)
	payload = append(payload, byte(OpBatch))
	payload = appendU32(payload, MaxBatchSteps+1)
	if _, err := ParseRequest(payload); err == nil {
		t.Fatal("oversized batch not rejected")
	}
}

func TestMaxBatchEncodesWithinRequestLimit(t *testing.T) {
	// Every batch MaxBatchSteps admits must also be encodable as a
	// legal frame: a limit the framing rejects would let one oversized
	// request kill a whole pipelined connection.
	steps := make([]Step, MaxBatchSteps)
	for i := range steps {
		steps[i] = Step{Kind: StepInsert, Key: int64(i), Val: int64(i)} // widest step encoding
	}
	frame := AppendRequest(nil, &Request{ID: 1, Op: OpBatch, Steps: steps})
	if payload := len(frame) - frameHeaderLen; payload > MaxRequestPayload {
		t.Fatalf("maximal batch payload %d exceeds MaxRequestPayload %d", payload, MaxRequestPayload)
	}
	fr := NewFrameReader(bytes.NewReader(frame), MaxRequestPayload)
	payload, err := fr.Next()
	if err != nil {
		t.Fatalf("maximal batch frame rejected: %v", err)
	}
	req, err := ParseRequest(payload)
	if err != nil || len(req.Steps) != MaxBatchSteps {
		t.Fatalf("maximal batch decode: %d steps, %v", len(req.Steps), err)
	}
}
