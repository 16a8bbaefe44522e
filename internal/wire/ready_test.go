package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// buffered returns a frame reader over a bufio.Reader that already holds
// all of stream, as after one socket read delivered it.
func buffered(t *testing.T, stream []byte) *FrameReader {
	t.Helper()
	br := bufio.NewReaderSize(bytes.NewReader(stream), 4096)
	if len(stream) > 0 {
		if _, err := br.Peek(1); err != nil {
			t.Fatalf("fill: %v", err)
		}
	}
	if br.Buffered() != len(stream) {
		t.Fatalf("buffered %d of %d bytes", br.Buffered(), len(stream))
	}
	return NewFrameReader(br, MaxRequestPayload)
}

func TestFrameReaderReady(t *testing.T) {
	frame := AppendRequest(nil, &Request{ID: 1, Op: OpInsert, Key: 5, Val: 50})
	var oversized [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(oversized[:4], MaxRequestPayload+1)

	for _, tc := range []struct {
		name   string
		stream []byte
		want   bool
	}{
		{"empty", nil, false},
		{"partial header", frame[:frameHeaderLen-1], false},
		{"header only", frame[:frameHeaderLen], false},
		{"partial payload", frame[:len(frame)-1], false},
		{"whole frame", frame, true},
		{"whole frame and a partial one", append(bytes.Clone(frame), frame[:10]...), true},
		{"over-limit length", oversized[:], true},
	} {
		fr := buffered(t, tc.stream)
		if got := fr.Ready(); got != tc.want {
			t.Errorf("%s: Ready = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Ready follows the stream: true while whole frames remain, false on
	// the partial tail, and Next still returns exactly the frames sent.
	fr := buffered(t, append(append(bytes.Clone(frame), frame...), frame[:10]...))
	for i := 0; i < 2; i++ {
		if !fr.Ready() {
			t.Fatalf("frame %d: not Ready", i)
		}
		if payload, err := fr.Next(); err != nil || !bytes.Equal(payload, frame[frameHeaderLen:]) {
			t.Fatalf("frame %d: Next = %x, %v", i, payload, err)
		}
	}
	if fr.Ready() {
		t.Fatal("Ready on a partial trailing frame")
	}

	// An over-limit header is Ready so that Next gets to report it.
	var pe *ProtocolError
	if _, err := buffered(t, oversized[:]).Next(); !errors.As(err, &pe) {
		t.Fatalf("over-limit frame: Next = %v, want *ProtocolError", err)
	}

	// Without a *bufio.Reader there is nothing to peek into.
	if NewFrameReader(bytes.NewReader(frame), MaxRequestPayload).Ready() {
		t.Fatal("Ready on an unbuffered reader")
	}
}
