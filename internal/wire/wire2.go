package wire

// The v2 frame family: namespace-addressed data ops over
// variable-length byte-string keys and values, plus the namespace admin
// ops. Frames share v1's transport (length prefix, CRC-32C, the same
// FrameReader) and the same request/response prologues; only the op set
// and bodies differ.
//
// # Encoding
//
// Every v2 data op starts its body with the u32 namespace id the server
// assigned at create time (NsCreate returns it, NsList reports it).
// Keys and values are length-prefixed byte strings: [u32 len][bytes],
// with len bounded by MaxKeyLen / MaxValLen. Zero-length keys and
// values are legal — "" is the smallest key of the byte-string order.
//
//	Get2     ns, key              -> ok, val
//	Insert2  ns, key, val         -> ok (inserted; absent-key contract)
//	Put2     ns, key, val         -> ok (replaced; upsert contract)
//	Del2     ns, key              -> ok (was present)
//	Range2   ns, lo, hi, max, fl  -> pairs (lexicographic byte order;
//	                                 flag bit 0 = no upper bound; the
//	                                 server truncates at MaxRangeBytes2
//	                                 so the response fits one frame —
//	                                 paginate by resuming from the last
//	                                 key + "\x00"; a bounded range is
//	                                 one atomic snapshot, an unbounded
//	                                 one is read in 64-pair
//	                                 transactions: weakly consistent
//	                                 past 64 pairs)
//	Batch2   ns, n steps          -> n step results, applied atomically
//	Sync2    ns                   -> fsync that namespace's WAL
//	Snap2    ns                   -> snapshot that namespace now
//
// The admin ops address namespaces by name, not id:
//
//	NsCreate name, durable, fsync -> id (StatusNsExists if present)
//	NsDrop   name                 -> empty (StatusNsNotFound if absent;
//	                                 a durable namespace's directory is
//	                                 deleted with it, crash-atomically,
//	                                 before the name can be created
//	                                 again; lookups wait meanwhile)
//	NsList                        -> entries of (id, name, durable)
//
// Namespace 0, "default", is the always-present int64 map: listed by
// NsList like any namespace, but never dropped, and reached through the
// v1 fixed-width ops (8-byte int64 keys and values, no namespace id, no
// length prefixes) — the fast encoding the int64 benchmarks ride. A v2
// data op naming namespace 0 is answered StatusErr, so neither family
// ever pays the other's bytes. The families are two encodings of one
// operation set, not two protocols: Op.Kind maps OpGet and OpGet2 to the
// same KindGet, and a server executes both through one path.
//
// # Batch admission
//
// A Batch2 is admissible when it has at most MaxBatchSteps steps AND
// its encoded steps total at most MaxBatchBytes2. Both bounds are
// client-checkable before writing (BatchBytes2), and together they
// guarantee every admissible batch encodes within MaxRequestPayload —
// an oversized batch must be rejected by the sender, never by the
// framing, because a refused frame kills the whole pipelined
// connection.

// v2 limits, derived so every admissible message still encodes within
// the v1 frame limits (which are shared protocol constants).
const (
	// MaxKeyLen bounds one key's bytes.
	MaxKeyLen = 1 << 10
	// MaxValLen bounds one value's bytes.
	MaxValLen = 1 << 16
	// MaxNsName bounds a namespace name's bytes.
	MaxNsName = 128
	// batch2Prologue is a Batch2 payload's fixed cost: id (8) + op (1)
	// + namespace (4) + step count (4).
	batch2Prologue = 17
	// MaxBatchBytes2 bounds the encoded steps of one Batch2 request
	// (see BatchBytes2), leaving prologue headroom under
	// MaxRequestPayload.
	MaxBatchBytes2 = MaxRequestPayload - 64
	// MaxRangeBytes2 bounds one Range2 response's encoded pairs so the
	// response always fits a single frame; servers truncate longer
	// results and clients paginate, resuming from last key + "\x00".
	MaxRangeBytes2 = MaxResponsePayload - 64
)

// Fsync policy selectors for NsCreate, mapped by the server onto its
// durability engine's policies.
const (
	NsFsyncDefault uint8 = iota // server's default policy
	NsFsyncNone
	NsFsyncInterval
	NsFsyncAlways
)

// BStep is one primitive of an atomic Batch2 request.
type BStep struct {
	Kind uint8 // StepInsert, StepRemove, StepLookup
	Key  []byte
	Val  []byte // StepInsert only
}

// BStepResult is one Batch2 step's outcome: Ok is the insert/remove
// success or lookup presence, Val the looked-up value (nil for
// non-lookup steps and absent keys).
type BStepResult struct {
	Ok  bool
	Val []byte
}

// BKV is a byte-string key/value pair carried by Range2 responses.
type BKV struct {
	Key, Val []byte
}

// NsInfo is one NsList entry.
type NsInfo struct {
	ID      uint32
	Name    string
	Durable bool
}

// StepBytes2 is the encoded size of one Batch2 step.
func StepBytes2(s *BStep) int {
	n := 1 + 4 + len(s.Key)
	if s.Kind == StepInsert {
		n += 4 + len(s.Val)
	}
	return n
}

// BatchBytes2 is the encoded size of a Batch2 request's steps; a batch
// is admissible when len(steps) <= MaxBatchSteps and BatchBytes2 <=
// MaxBatchBytes2.
func BatchBytes2(steps []BStep) int {
	n := 0
	for i := range steps {
		n += StepBytes2(&steps[i])
	}
	return n
}

// --- Encoding -----------------------------------------------------------

func appendBytes(dst []byte, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// appendRequest2 encodes a v2 request body (everything after the id and
// op byte); AppendRequest dispatches here.
func appendRequest2(dst []byte, req *Request) []byte {
	switch req.Op {
	case OpNsCreate:
		dst = appendString(dst, req.Name)
		dst = appendBool(dst, req.Durable)
		return append(dst, req.Fsync)
	case OpNsDrop:
		return appendString(dst, req.Name)
	case OpNsList:
		return dst
	}
	dst = appendU32(dst, req.NS)
	switch req.Op {
	case OpGet2, OpDel2:
		dst = appendBytes(dst, req.BKey)
	case OpInsert2, OpPut2:
		dst = appendBytes(dst, req.BKey)
		dst = appendBytes(dst, req.BVal)
	case OpRange2:
		dst = appendBytes(dst, req.BKey)
		dst = appendBytes(dst, req.BVal)
		dst = appendU32(dst, req.Max)
		var fl uint8
		if req.NoHi {
			fl |= 1
		}
		dst = append(dst, fl)
	case OpBatch2:
		dst = appendU32(dst, uint32(len(req.BSteps)))
		for i := range req.BSteps {
			s := &req.BSteps[i]
			dst = append(dst, s.Kind)
			dst = appendBytes(dst, s.Key)
			if s.Kind == StepInsert {
				dst = appendBytes(dst, s.Val)
			}
		}
	case OpSync2, OpSnapshot2:
		// namespace id only
	}
	return dst
}

// appendResponse2 encodes a v2 StatusOK response body.
func appendResponse2(dst []byte, resp *Response) []byte {
	switch resp.Op {
	case OpGet2:
		dst = appendBool(dst, resp.Ok)
		if resp.Ok {
			dst = appendBytes(dst, resp.BVal)
		}
	case OpInsert2, OpPut2, OpDel2:
		dst = appendBool(dst, resp.Ok)
	case OpRange2:
		dst = appendU32(dst, uint32(len(resp.BPairs)))
		for i := range resp.BPairs {
			dst = appendBytes(dst, resp.BPairs[i].Key)
			dst = appendBytes(dst, resp.BPairs[i].Val)
		}
	case OpBatch2:
		dst = appendU32(dst, uint32(len(resp.BSteps)))
		for i := range resp.BSteps {
			s := &resp.BSteps[i]
			dst = appendBool(dst, s.Ok)
			dst = appendBytes(dst, s.Val)
		}
	case OpNsCreate:
		dst = appendU32(dst, resp.NsID)
	case OpNsList:
		dst = appendU32(dst, uint32(len(resp.Namespaces)))
		for i := range resp.Namespaces {
			ns := &resp.Namespaces[i]
			dst = appendU32(dst, ns.ID)
			dst = appendString(dst, ns.Name)
			dst = appendBool(dst, ns.Durable)
		}
	case OpSync2, OpSnapshot2, OpNsDrop:
		// no body
	}
	return dst
}

// --- Decoding -----------------------------------------------------------

// blen reads a byte string's length prefix. Its label is built only on
// failure: this runs once per key and value on the request path, and the
// concatenation would be a heap allocation each time.
func (d *decoder) blen(what string) uint32 {
	if d.err == nil && d.off+4 > len(d.buf) {
		d.fail(what + " length")
	}
	return d.u32(what)
}

// bstr reads a length-prefixed byte string, enforcing maxLen and
// copying the bytes out of the frame buffer (which is reused by the
// next frame) into the decoder's arena: a short string shares one of the
// arena's chunks, a long one gets its own allocation.
func (d *decoder) bstr(maxLen int, what string) []byte {
	n := d.blen(what)
	if d.err != nil {
		return nil
	}
	if int(n) > maxLen {
		d.err = protoErrf("%s of %d bytes exceeds limit %d", what, n, maxLen)
		return nil
	}
	raw := d.bytes(int(n), what)
	if d.err != nil {
		return nil
	}
	return d.arena.copy(raw)
}

// str reads a length-prefixed string into its own allocation, never the
// arena's: a namespace name is kept by the registry.
func (d *decoder) str(maxLen int, what string) string {
	n := d.blen(what)
	if d.err != nil {
		return ""
	}
	if int(n) > maxLen {
		d.err = protoErrf("%s of %d bytes exceeds limit %d", what, n, maxLen)
		return ""
	}
	return string(d.bytes(int(n), what))
}

// parseRequest2 decodes a v2 request body; ParseRequest dispatches
// here after reading the id and op.
func parseRequest2(d *decoder, req *Request) {
	switch req.Op {
	case OpNsCreate:
		req.Name = d.str(MaxNsName, "namespace name")
		req.Durable = d.bool8("durable")
		req.Fsync = d.u8("fsync policy")
		if d.err == nil && req.Fsync > NsFsyncAlways {
			d.err = protoErrf("unknown fsync policy %d", req.Fsync)
		}
		return
	case OpNsDrop:
		req.Name = d.str(MaxNsName, "namespace name")
		return
	case OpNsList:
		return
	}
	req.NS = d.u32("namespace")
	switch req.Op {
	case OpGet2, OpDel2:
		req.BKey = d.bstr(MaxKeyLen, "key")
	case OpInsert2, OpPut2:
		req.BKey = d.bstr(MaxKeyLen, "key")
		req.BVal = d.bstr(MaxValLen, "val")
	case OpRange2:
		req.BKey = d.bstr(MaxKeyLen, "lo")
		req.BVal = d.bstr(MaxKeyLen, "hi")
		req.Max = d.u32("max")
		fl := d.u8("flags")
		if d.err == nil && fl > 1 {
			d.err = protoErrf("unknown range flags %#x", fl)
		}
		req.NoHi = fl&1 != 0
	case OpBatch2:
		n := d.u32("step count")
		if d.err == nil && n > MaxBatchSteps {
			d.err = protoErrf("batch of %d steps exceeds limit %d", n, MaxBatchSteps)
			return
		}
		if d.err == nil {
			req.BSteps = make([]BStep, 0, min(int(n), len(d.buf)/5))
		}
		for i := uint32(0); i < n && d.err == nil; i++ {
			var s BStep
			s.Kind = d.u8("step kind")
			if d.err == nil && s.Kind > StepLookup {
				d.err = protoErrf("unknown batch step kind %d", s.Kind)
				return
			}
			s.Key = d.bstr(MaxKeyLen, "step key")
			if s.Kind == StepInsert {
				s.Val = d.bstr(MaxValLen, "step val")
			}
			if d.err == nil {
				req.BSteps = append(req.BSteps, s)
			}
		}
	case OpSync2, OpSnapshot2:
		// namespace id only
	}
}

// parseResponse2 decodes a v2 StatusOK response body.
func parseResponse2(d *decoder, resp *Response) {
	switch resp.Op {
	case OpGet2:
		resp.Ok = d.bool8("ok")
		if resp.Ok && d.err == nil {
			resp.BVal = d.bstr(MaxValLen, "val")
		}
	case OpInsert2, OpPut2, OpDel2:
		resp.Ok = d.bool8("ok")
	case OpRange2:
		n := d.u32("pair count")
		// Each pair costs at least 8 bytes of length prefixes; bound the
		// allocation by what the payload could actually hold.
		if d.err == nil && int64(n)*8 > int64(len(d.buf)) {
			d.err = protoErrf("pair count %d exceeds payload", n)
			return
		}
		resp.BPairs = make([]BKV, 0, n)
		for i := uint32(0); i < n && d.err == nil; i++ {
			k := d.bstr(MaxKeyLen, "pair key")
			v := d.bstr(MaxValLen, "pair val")
			if d.err == nil {
				resp.BPairs = append(resp.BPairs, BKV{Key: k, Val: v})
			}
		}
	case OpBatch2:
		n := d.u32("result count")
		if d.err == nil && n > MaxBatchSteps {
			d.err = protoErrf("batch of %d results exceeds limit %d", n, MaxBatchSteps)
			return
		}
		if d.err == nil {
			resp.BSteps = make([]BStepResult, 0, min(int(n), len(d.buf)/5))
		}
		for i := uint32(0); i < n && d.err == nil; i++ {
			ok := d.bool8("result ok")
			val := d.bstr(MaxValLen, "result val")
			if d.err == nil {
				resp.BSteps = append(resp.BSteps, BStepResult{Ok: ok, Val: val})
			}
		}
	case OpNsCreate:
		resp.NsID = d.u32("namespace id")
	case OpNsList:
		n := d.u32("namespace count")
		if d.err == nil && int64(n)*9 > int64(len(d.buf)) {
			d.err = protoErrf("namespace count %d exceeds payload", n)
			return
		}
		resp.Namespaces = make([]NsInfo, 0, n)
		for i := uint32(0); i < n && d.err == nil; i++ {
			var ns NsInfo
			ns.ID = d.u32("namespace id")
			ns.Name = d.str(MaxNsName, "namespace name")
			ns.Durable = d.bool8("durable")
			if d.err == nil {
				resp.Namespaces = append(resp.Namespaces, ns)
			}
		}
	case OpSync2, OpSnapshot2, OpNsDrop:
		// no body
	}
}
