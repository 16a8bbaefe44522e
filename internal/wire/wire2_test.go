package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

func TestRequest2RoundTrip(t *testing.T) {
	reqs := []Request{
		{ID: 1, Op: OpGet2, NS: 3, BKey: []byte("feed/politics")},
		{ID: 2, Op: OpGet2, NS: 0, BKey: []byte{}}, // zero-length key is legal
		{ID: 3, Op: OpInsert2, NS: 9, BKey: []byte("a"), BVal: []byte("value")},
		{ID: 4, Op: OpPut2, NS: 9, BKey: bytes.Repeat([]byte{0xff}, MaxKeyLen), BVal: nil},
		{ID: 5, Op: OpDel2, NS: 1, BKey: []byte("\x00\x01\x02")},
		{ID: 6, Op: OpRange2, NS: 2, BKey: []byte("a"), BVal: []byte("z"), Max: 7},
		{ID: 7, Op: OpRange2, NS: 2, BKey: nil, BVal: nil, NoHi: true},
		{ID: 8, Op: OpBatch2, NS: 4, BSteps: []BStep{
			{Kind: StepInsert, Key: []byte("k1"), Val: []byte("v1")},
			{Kind: StepRemove, Key: []byte("k2")},
			{Kind: StepLookup, Key: []byte{}},
		}},
		{ID: 9, Op: OpSync2, NS: 5},
		{ID: 10, Op: OpSnapshot2, NS: 6},
		{ID: 11, Op: OpNsCreate, Name: "news-articles", Durable: true, Fsync: NsFsyncAlways},
		{ID: 12, Op: OpNsCreate, Name: "", Durable: false, Fsync: NsFsyncDefault},
		{ID: 13, Op: OpNsDrop, Name: "news-articles"},
		{ID: 14, Op: OpNsList},
	}
	for _, req := range reqs {
		got := roundTripRequest(t, req)
		if got.ID != req.ID || got.Op != req.Op || got.NS != req.NS ||
			!bytes.Equal(got.BKey, req.BKey) || !bytes.Equal(got.BVal, req.BVal) ||
			got.Max != req.Max || got.NoHi != req.NoHi || got.Key != req.Key ||
			got.Name != req.Name || got.Durable != req.Durable || got.Fsync != req.Fsync ||
			len(got.BSteps) != len(req.BSteps) {
			t.Fatalf("%s: round trip %+v -> %+v", req.Op, req, got)
		}
		for i := range req.BSteps {
			if got.BSteps[i].Kind != req.BSteps[i].Kind ||
				!bytes.Equal(got.BSteps[i].Key, req.BSteps[i].Key) ||
				!bytes.Equal(got.BSteps[i].Val, req.BSteps[i].Val) {
				t.Fatalf("%s: step %d %+v -> %+v", req.Op, i, req.BSteps[i], got.BSteps[i])
			}
		}
	}
}

func TestResponse2RoundTrip(t *testing.T) {
	resps := []Response{
		{ID: 1, Op: OpGet2, Ok: true, BVal: []byte("payload")},
		{ID: 2, Op: OpGet2, Ok: true, BVal: []byte{}},
		{ID: 3, Op: OpGet2, Ok: false},
		{ID: 4, Op: OpInsert2, Ok: true},
		{ID: 5, Op: OpDel2, Ok: false},
		{ID: 6, Op: OpRange2, BPairs: []BKV{
			{Key: []byte(""), Val: []byte("empty key")},
			{Key: []byte("k"), Val: []byte{}},
		}},
		{ID: 7, Op: OpRange2, BPairs: nil},
		{ID: 8, Op: OpBatch2, BSteps: []BStepResult{
			{Ok: true, Val: []byte("looked up")},
			{Ok: false, Val: nil},
		}},
		{ID: 9, Op: OpSync2},
		{ID: 10, Op: OpNsCreate, NsID: 17},
		{ID: 11, Op: OpNsDrop},
		{ID: 12, Op: OpNsList, Namespaces: []NsInfo{
			{ID: 0, Name: "default", Durable: true},
			{ID: 3, Name: "articles", Durable: false},
		}},
		{ID: 13, Op: OpGet2, Status: StatusNsNotFound, Msg: "namespace 9 not found"},
		{ID: 14, Op: OpNsCreate, Status: StatusNsExists, Msg: "articles exists"},
	}
	for _, resp := range resps {
		got := roundTripResponse(t, resp)
		if got.ID != resp.ID || got.Op != resp.Op || got.Status != resp.Status ||
			got.Ok != resp.Ok || got.NsID != resp.NsID || got.Msg != resp.Msg ||
			got.Val != resp.Val ||
			!bytes.Equal(got.BVal, resp.BVal) ||
			len(got.BPairs) != len(resp.BPairs) || len(got.BSteps) != len(resp.BSteps) ||
			!reflect.DeepEqual(got.Namespaces, resp.Namespaces) &&
				!(len(got.Namespaces) == 0 && len(resp.Namespaces) == 0) {
			t.Fatalf("round trip %+v -> %+v", resp, got)
		}
		for i := range resp.BPairs {
			if !bytes.Equal(got.BPairs[i].Key, resp.BPairs[i].Key) ||
				!bytes.Equal(got.BPairs[i].Val, resp.BPairs[i].Val) {
				t.Fatalf("pair %d: %+v -> %+v", i, resp.BPairs[i], got.BPairs[i])
			}
		}
		for i := range resp.BSteps {
			if got.BSteps[i].Ok != resp.BSteps[i].Ok ||
				!bytes.Equal(got.BSteps[i].Val, resp.BSteps[i].Val) {
				t.Fatalf("step %d: %+v -> %+v", i, resp.BSteps[i], got.BSteps[i])
			}
		}
	}
}

// TestRandomNamespaceRoundTrip is the encode/decode property test: v2
// traffic over randomly generated namespaces, keys and values must
// round-trip exactly, for every op shape, across many trials.
func TestRandomNamespaceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1107))
	randBytes := func(maxLen int) []byte {
		b := make([]byte, rng.Intn(maxLen+1))
		rng.Read(b)
		return b
	}
	for trial := 0; trial < 500; trial++ {
		ns := rng.Uint32()
		var req Request
		req.ID = rng.Uint64()
		switch rng.Intn(6) {
		case 0:
			req.Op, req.NS, req.BKey = OpGet2, ns, randBytes(64)
		case 1:
			req.Op, req.NS, req.BKey, req.BVal = OpInsert2, ns, randBytes(MaxKeyLen), randBytes(256)
		case 2:
			req.Op, req.NS, req.BKey, req.BVal = OpPut2, ns, randBytes(64), randBytes(MaxValLen/64)
		case 3:
			req.Op, req.NS, req.BKey = OpDel2, ns, randBytes(64)
		case 4:
			req.Op, req.NS = OpRange2, ns
			req.BKey, req.BVal = randBytes(32), randBytes(32)
			req.Max = rng.Uint32() % 1000
			req.NoHi = rng.Intn(2) == 0
		case 5:
			req.Op, req.NS = OpBatch2, ns
			for i := rng.Intn(8); i > 0; i-- {
				s := BStep{Kind: uint8(rng.Intn(3)), Key: randBytes(32)}
				if s.Kind == StepInsert {
					s.Val = randBytes(64)
				}
				req.BSteps = append(req.BSteps, s)
			}
		}
		frame := AppendRequest(nil, &req)
		got, err := ParseRequest(frame[frameHeaderLen:])
		if err != nil {
			t.Fatalf("trial %d: parse %s: %v", trial, req.Op, err)
		}
		// Re-encoding the decoded request must reproduce the original
		// frame byte for byte: the encoding is canonical.
		if !bytes.Equal(AppendRequest(nil, &got), frame) {
			t.Fatalf("trial %d: %s did not round-trip canonically", trial, req.Op)
		}
	}
}

func TestV2MalformedRejected(t *testing.T) {
	prologue := func(op Op) []byte {
		var p []byte
		p = appendU64(p, 1)
		return append(p, byte(op))
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"truncated key length prefix", append(appendU32(prologue(OpGet2), 3), 0x00, 0x01)}, // 2 of 4 length bytes
		{"truncated key body", append(appendU32(appendU32(prologue(OpGet2), 3), 10), 'a', 'b')},
		{"oversized key length", appendU32(appendU32(prologue(OpGet2), 3), MaxKeyLen+1)},
		{"oversized val length", appendU32(appendBytes(appendU32(prologue(OpInsert2), 3), []byte("k")), MaxValLen+1)},
		{"oversized namespace name", appendU32(prologue(OpNsCreate), MaxNsName+1)},
		{"bad fsync policy", append(appendString(prologue(OpNsCreate), "x"), 1, 99)},
		{"bad range flags", append(appendU32(appendBytes(appendBytes(appendU32(prologue(OpRange2), 1), nil), nil), 0), 0x04)},
		{"batch step limit", appendU32(appendU32(prologue(OpBatch2), 1), MaxBatchSteps+1)},
		{"bad batch step kind", append(appendU32(appendU32(prologue(OpBatch2), 1), 1), 7)},
		{"missing namespace id", prologue(OpSync2)},
	}
	for _, tc := range cases {
		if _, err := ParseRequest(tc.payload); err == nil {
			t.Errorf("%s: not rejected", tc.name)
		}
	}
	// Oversized value in a Get2 response.
	var resp []byte
	resp = appendU64(resp, 1)
	resp = append(resp, byte(OpGet2), byte(StatusOK), 1)
	resp = appendU32(resp, MaxValLen+1)
	if _, err := ParseResponse(resp); err == nil {
		t.Error("oversized response val not rejected")
	}
}

func TestV2CorruptFrameRejected(t *testing.T) {
	frame := AppendRequest(nil, &Request{ID: 1, Op: OpInsert2, NS: 2,
		BKey: []byte("article/2026/08/07"), BVal: bytes.Repeat([]byte("x"), 100)})
	for i := frameHeaderLen; i < len(frame); i++ {
		mutated := bytes.Clone(frame)
		mutated[i] ^= 0x40
		fr := NewFrameReader(bytes.NewReader(mutated), MaxRequestPayload)
		if _, err := fr.Next(); err == nil {
			t.Fatalf("payload corruption at byte %d not caught by checksum", i)
		}
	}
}

// TestMaxBatch2EncodesWithinRequestLimit pins the re-derived limit
// contract: any Batch2 within both admission bounds (MaxBatchSteps
// steps, MaxBatchBytes2 encoded bytes) must encode as a legal frame.
func TestMaxBatch2EncodesWithinRequestLimit(t *testing.T) {
	// Build a batch saturating the byte bound with wide insert steps.
	val := bytes.Repeat([]byte("v"), MaxValLen)
	var steps []BStep
	total := 0
	for {
		s := BStep{Kind: StepInsert, Key: []byte("key"), Val: val}
		if n := StepBytes2(&s); total+n > MaxBatchBytes2 {
			// Top up with the smallest possible step to get as close to
			// the bound as it allows.
			pad := BStep{Kind: StepLookup, Key: nil}
			for total+StepBytes2(&pad) <= MaxBatchBytes2 && len(steps) < MaxBatchSteps {
				steps = append(steps, pad)
				total += StepBytes2(&pad)
			}
			break
		} else {
			steps = append(steps, s)
			total += n
		}
	}
	if got := BatchBytes2(steps); got != total || got > MaxBatchBytes2 {
		t.Fatalf("BatchBytes2 = %d, accumulated %d, limit %d", got, total, MaxBatchBytes2)
	}
	frame := AppendRequest(nil, &Request{ID: 1, Op: OpBatch2, NS: 1, BSteps: steps})
	if payload := len(frame) - frameHeaderLen; payload > MaxRequestPayload {
		t.Fatalf("maximal Batch2 payload %d exceeds MaxRequestPayload %d", payload, MaxRequestPayload)
	}
	fr := NewFrameReader(bytes.NewReader(frame), MaxRequestPayload)
	payload, err := fr.Next()
	if err != nil {
		t.Fatalf("maximal Batch2 frame rejected: %v", err)
	}
	req, err := ParseRequest(payload)
	if err != nil || len(req.BSteps) != len(steps) {
		t.Fatalf("maximal Batch2 decode: %d steps, %v", len(req.BSteps), err)
	}
}

// FuzzParseFrames throws arbitrary payloads at both parsers. Neither
// may panic or over-allocate, and anything either accepts must
// re-encode canonically — a frame can be rejected or decoded exactly,
// never misdecoded. Each input is decoded three ways: through the
// package-level parsers' throwaway arena, through an arena shared by
// every input and never rewound (a client connection's), and through one
// rewound before every input (a server connection's). What the previous
// input decoded into the shared arena must still re-encode canonically
// after this one: decoding never writes a slice already handed out.
func FuzzParseFrames(f *testing.F) {
	seed := []Request{
		{ID: 1, Op: OpGet, Key: 42},
		{ID: 2, Op: OpBatch, Steps: []Step{{Kind: StepInsert, Key: 1, Val: 2}}},
		{ID: 3, Op: OpGet2, NS: 1, BKey: []byte("k")},
		{ID: 4, Op: OpInsert2, NS: 2, BKey: []byte(""), BVal: []byte("v")},
		{ID: 5, Op: OpRange2, NS: 3, BKey: []byte("a"), BVal: []byte("z"), Max: 10},
		{ID: 6, Op: OpBatch2, NS: 4, BSteps: []BStep{{Kind: StepLookup, Key: []byte("q")}}},
		{ID: 7, Op: OpNsCreate, Name: "fuzz", Durable: true, Fsync: NsFsyncInterval},
		{ID: 8, Op: OpNsList},
		{ID: 11, Op: OpFollow, Key: 7, Val: 42},
	}
	for i := range seed {
		f.Add(AppendRequest(nil, &seed[i])[frameHeaderLen:])
	}
	f.Add(AppendResponse(nil, &Response{ID: 9, Op: OpGet2, Ok: true, BVal: []byte("v")})[frameHeaderLen:])
	f.Add(AppendResponse(nil, &Response{ID: 10, Op: OpNsList,
		Namespaces: []NsInfo{{ID: 1, Name: "a", Durable: true}}})[frameHeaderLen:])
	// accepted is what one input decoded to, nil where it was rejected.
	type accepted struct {
		payload []byte
		req     *Request
		resp    *Response
	}
	check := func(t *testing.T, how string, got accepted) {
		t.Helper()
		if got.req != nil && !bytes.Equal(AppendRequest(nil, got.req)[frameHeaderLen:], got.payload) {
			t.Fatalf("%s: accepted request did not re-encode canonically: %+v", how, *got.req)
		}
		if got.resp != nil && !bytes.Equal(AppendResponse(nil, got.resp)[frameHeaderLen:], got.payload) {
			t.Fatalf("%s: accepted response did not re-encode canonically: %+v", how, *got.resp)
		}
	}
	decode := func(payload []byte, parseReq func([]byte) (Request, error),
		parseResp func([]byte) (Response, error)) accepted {
		got := accepted{payload: bytes.Clone(payload)}
		if req, err := parseReq(payload); err == nil {
			got.req = &req
		}
		if resp, err := parseResp(payload); err == nil {
			got.resp = &resp
		}
		return got
	}
	var (
		shared, rewound Arena
		prev            accepted
	)
	f.Fuzz(func(t *testing.T, payload []byte) {
		check(t, "throwaway arena", decode(payload, ParseRequest, ParseResponse))
		rewound.Rewind()
		check(t, "rewound arena", decode(payload, rewound.ParseRequest, rewound.ParseResponse))
		got := decode(payload, shared.ParseRequest, shared.ParseResponse)
		check(t, "shared arena", got)
		check(t, "shared arena, previous input", prev)
		prev = got
	})
}
