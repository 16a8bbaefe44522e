package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func roundTripReplMsg(t *testing.T, m ReplMsg) ReplMsg {
	t.Helper()
	frame := AppendReplMsg(nil, &m)
	fr := NewFrameReader(bytes.NewReader(frame), MaxResponsePayload)
	payload, err := fr.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	got, err := ParseReplMsg(payload)
	if err != nil {
		t.Fatalf("ParseReplMsg: %v", err)
	}
	return got
}

func TestReplMsgRoundTrip(t *testing.T) {
	msgs := []ReplMsg{
		{Op: OpFollow, Epoch: 7, Seq: 42},
		{Op: OpFollow, Epoch: 8, Seq: 0, Full: true},
		// A chunk is a run of snapshot file bytes, opaque to the wire.
		{Op: OpSnapChunk, Data: append([]byte("SKHSNP1\n"), bytes.Repeat([]byte{0xFE}, 16)...)},
		{Op: OpSnapChunk, Data: nil},
		{Op: OpWalRecord, Seq: 3, Data: []byte{1, 2, 3, 4}},
		{Op: OpWalRecord, Seq: 4, Data: nil},
		{Op: OpHeartbeat, Stamp: 104},
	}
	for _, m := range msgs {
		got := roundTripReplMsg(t, m)
		if got.Op != m.Op || got.Epoch != m.Epoch || got.Seq != m.Seq ||
			got.Stamp != m.Stamp || got.Full != m.Full || !bytes.Equal(got.Data, m.Data) {
			t.Fatalf("%s: round trip %+v -> %+v", m.Op, m, got)
		}
	}
}

func TestReplMsgCopiesOps(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	frame := AppendReplMsg(nil, &ReplMsg{Op: OpWalRecord, Seq: 1, Data: src})
	payload := bytes.Clone(frame[frameHeaderLen:])
	m, err := ParseReplMsg(payload)
	if err != nil {
		t.Fatalf("ParseReplMsg: %v", err)
	}
	for i := range payload {
		payload[i] = 0xFF
	}
	if !bytes.Equal(m.Data, src) {
		t.Fatalf("Data aliases the frame buffer: %v", m.Data)
	}
}

func TestReplMsgRejectsGarbage(t *testing.T) {
	if _, err := ParseReplMsg([]byte{0xEE}); err == nil {
		t.Fatal("unknown replication op not rejected")
	}
	// Op 13 is reserved; its retired body was one stamp.
	if _, err := ParseReplMsg(appendU64([]byte{13}, 9)); err == nil {
		t.Fatal("retired op 13 not rejected")
	}
	frame := AppendReplMsg(nil, &ReplMsg{Op: OpHeartbeat, Stamp: 9})
	payload := bytes.Clone(frame[frameHeaderLen:])
	if _, err := ParseReplMsg(payload[:len(payload)-2]); err == nil {
		t.Fatal("truncated payload not rejected")
	}
	if _, err := ParseReplMsg(append(payload, 0xAB)); err == nil {
		t.Fatal("trailing bytes not rejected")
	}
	// A data length that cannot fit the payload must be rejected before
	// allocation.
	var chunk []byte
	chunk = append(chunk, byte(OpSnapChunk))
	chunk = appendU64(chunk, 0)
	chunk = appendU32(chunk, 1<<30)
	if _, err := ParseReplMsg(chunk); err == nil {
		t.Fatal("oversized snap chunk data length not rejected")
	}
}

func TestWatermarkPromoteRoundTrip(t *testing.T) {
	got := roundTripRequest(t, Request{ID: 1, Op: OpWatermark})
	if got.Op != OpWatermark {
		t.Fatalf("watermark request round trip: %+v", got)
	}
	got = roundTripRequest(t, Request{ID: 2, Op: OpPromote})
	if got.Op != OpPromote {
		t.Fatalf("promote request round trip: %+v", got)
	}
	resp := roundTripResponse(t, Response{ID: 1, Op: OpWatermark, Val: 1 << 40})
	if resp.Val != 1<<40 {
		t.Fatalf("watermark response Val = %d", resp.Val)
	}
	resp = roundTripResponse(t, Response{ID: 2, Op: OpPromote})
	if resp.Op != OpPromote || resp.Status != StatusOK {
		t.Fatalf("promote response round trip: %+v", resp)
	}
	resp = roundTripResponse(t, Response{ID: 3, Op: OpPut, Status: StatusReadOnly, Msg: "replica"})
	if resp.Status != StatusReadOnly || resp.Msg != "replica" {
		t.Fatalf("read-only response round trip: %+v", resp)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	got := roundTripRequest(t, Request{ID: 7, Op: OpStats})
	if got.Op != OpStats || got.ID != 7 {
		t.Fatalf("stats request round trip: %+v", got)
	}
	blob := []byte("# HELP skiphash_stm_commits_total x\nskiphash_stm_commits_total 42\n")
	resp := roundTripResponse(t, Response{ID: 7, Op: OpStats, BVal: blob})
	if !bytes.Equal(resp.BVal, blob) {
		t.Fatalf("stats response blob = %q", resp.BVal)
	}
	// An oversized blob length must be rejected before allocation.
	frame := AppendResponse(nil, &Response{ID: 8, Op: OpStats, BVal: []byte("x")})
	payload := bytes.Clone(frame[frameHeaderLen:])
	binary.LittleEndian.PutUint32(payload[10:], MaxStatsLen+1)
	if _, err := ParseResponse(payload); err == nil {
		t.Fatal("oversized stats length not rejected")
	}
}
