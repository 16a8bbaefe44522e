package server

import (
	"errors"
	"net"
	"unsafe"

	"repro/internal/wire"
	"repro/skiphash"
)

// ErrReadOnly is returned by a backend refusing writes — a replica that
// has not been promoted. The server answers with StatusReadOnly.
var ErrReadOnly = errors.New("server: backend is read-only (unpromoted replica)")

// Backend is the map one namespace executes against, at the level of
// wire requests: the executor decides which requests form a run and in
// what order responses go out; the backend knows where a request keeps
// its key and how a result goes into a response. Every method that takes
// a response expects it prepared by answer and fills in only the result.
type Backend interface {
	// Atomic executes group as one transaction, leaving group[i]'s result
	// in resps[i]; everything commits or rolls back together. Like the
	// map's own Atomic the body may re-execute on conflict, so resps are
	// final only once Atomic returns nil; retries counts re-executions.
	Atomic(group []wire.Request, resps []wire.Response) (retries uint64, err error)
	// Get answers one point read directly — through the map's optimistic
	// non-transactional fast path when enabled, with a per-read
	// transactional fallback. The executor routes pure-read runs here so
	// they skip the atomic-txn machinery entirely.
	Get(req *wire.Request, resp *wire.Response)
	// Range answers one range request, truncated to the client's Max and
	// to what fits a single response frame. scratch is the calling
	// connection's, for the backend to keep a buffer in between calls.
	Range(req *wire.Request, resp *wire.Response, scratch *any)
	// Durable reports whether the map has a durability engine attached.
	Durable() bool
	// Sync, Snapshot expose the durability surface (skiphash.ErrNotDurable
	// without one).
	Sync() error
	Snapshot() error
	// Close releases the map. A durable one flushes and fsyncs its WAL,
	// and the error reports whatever stopped acknowledged writes from
	// reaching the disk. The registry closes the namespaces it created;
	// namespace 0's map belongs to whoever built the server.
	Close() error
}

// Watermarker is an optional Backend extension: a backend that can
// report its commit-stamp watermark (the stamp below which every commit
// is visible to reads). Replica backends report their applied stamp;
// primary backends a fresh clock read. Without it, OpWatermark answers
// StatusErr.
type Watermarker interface {
	Watermark() uint64
}

// Promoter is an optional Backend extension: a replica backend that can
// be made writable. Without it, OpPromote answers StatusErr.
type Promoter interface {
	Promote() error
}

// Streamer is an optional extension of namespace 0's Backend: a backend
// whose write-ahead log followers can stream (a replication primary's).
// A Follow request answered StatusOK hands its connection to Stream,
// which serves the follower from (epoch, pos) on it until the follower
// or the connection fails, and returns why. Without it, OpFollow
// answers StatusErr and the connection keeps serving.
type Streamer interface {
	Stream(nc net.Conn, epoch, pos uint64) error
}

// answer prepares resp as req's StatusOK response, keeping the capacity
// of its result slices for reuse.
func answer(resp *wire.Response, req *wire.Request) {
	resp.ID, resp.Op, resp.Status, resp.Msg = req.ID, req.Op, wire.StatusOK, ""
	resp.Ok, resp.Val = false, 0
	resp.Steps, resp.BSteps = resp.Steps[:0], resp.BSteps[:0]
	resp.Pairs, resp.BPairs = resp.Pairs[:0], resp.BPairs[:0]
}

// codec is the only place the two frame families differ: where a request
// carries its keys and values, and where a response carries results.
// int64Codec reads the v1 fixed-width fields, bytesCodec the v2
// length-prefixed byte strings.
type codec[K comparable, V any] interface {
	// key is a point op's key and a range's lower bound; entry an
	// insert's or put's key and value; hi a bounded range's upper bound.
	key(req *wire.Request) K
	entry(req *wire.Request) (K, V)
	hi(req *wire.Request) K
	// keyView is key for call sites that only look the key up — hash it,
	// compare it — and retain nothing: it may borrow the request's bytes
	// instead of copying them. The view is good for as long as the
	// request is: a connection's loop executes and answers a cycle's
	// requests before its next read replaces them (PR 17), so the bytes
	// outlive any lookup. Inserts, puts and removes take key: the map and
	// the WAL may keep what they are given. stepView is step likewise.
	keyView(req *wire.Request) K
	// putVal stores a Get's result.
	putVal(resp *wire.Response, v V)
	// numSteps, step, stepEntry read a client batch (stepEntry is entry
	// for an insert step); addStep appends one step's result (v is the
	// zero value except for a lookup hit).
	numSteps(req *wire.Request) int
	step(req *wire.Request, i int) (kind uint8, k K)
	stepView(req *wire.Request, i int) (kind uint8, k K)
	stepEntry(req *wire.Request, i int) (K, V)
	addStep(resp *wire.Response, ok bool, v V)
	// pairCost, addPair build a range result: what one more pair costs
	// in encoded bytes, and appending it.
	pairCost(k K, v V) int
	addPair(resp *wire.Response, k K, v V)
}

// int64Codec is the v1 family: 8-byte keys and values in Key/Val.
type int64Codec struct{}

func (int64Codec) key(req *wire.Request) int64            { return req.Key }
func (int64Codec) keyView(req *wire.Request) int64        { return req.Key }
func (int64Codec) entry(req *wire.Request) (int64, int64) { return req.Key, req.Val }
func (int64Codec) hi(req *wire.Request) int64             { return req.Val }
func (int64Codec) putVal(resp *wire.Response, v int64)    { resp.Val = v }
func (int64Codec) numSteps(req *wire.Request) int         { return len(req.Steps) }
func (int64Codec) pairCost(int64, int64) int              { return 16 }

func (int64Codec) stepEntry(req *wire.Request, i int) (int64, int64) {
	return req.Steps[i].Key, req.Steps[i].Val
}

func (int64Codec) step(req *wire.Request, i int) (uint8, int64) {
	return req.Steps[i].Kind, req.Steps[i].Key
}

func (cd int64Codec) stepView(req *wire.Request, i int) (uint8, int64) { return cd.step(req, i) }

func (int64Codec) addStep(resp *wire.Response, ok bool, v int64) {
	resp.Steps = append(resp.Steps, wire.StepResult{Ok: ok, Out: v})
}

func (int64Codec) addPair(resp *wire.Response, k, v int64) {
	resp.Pairs = append(resp.Pairs, wire.KV{Key: k, Val: v})
}

// bytesCodec is the v2 family: byte strings in BKey/BVal. They cross the
// wire as []byte but are stored as immutable strings (the map's
// comparable key type); this codec is the conversion boundary.
type bytesCodec struct{}

func (bytesCodec) key(req *wire.Request) string             { return string(req.BKey) }
func (bytesCodec) keyView(req *wire.Request) string         { return borrow(req.BKey) }
func (bytesCodec) entry(req *wire.Request) (string, string) { return joint(req.BKey, req.BVal) }
func (bytesCodec) hi(req *wire.Request) string              { return string(req.BVal) }
func (bytesCodec) numSteps(req *wire.Request) int           { return len(req.BSteps) }
func (bytesCodec) pairCost(k, v string) int                 { return 8 + len(k) + len(v) }

func (bytesCodec) stepEntry(req *wire.Request, i int) (string, string) {
	return joint(req.BSteps[i].Key, req.BSteps[i].Val)
}

// joint copies a key and its value into one string and slices both out
// of it: an insert keeps one object for the two instead of two. A put
// builds a new node for its pair, so a kept key never pins a value that
// has since been replaced.
func joint(k, v []byte) (string, string) {
	buf := make([]byte, len(k)+len(v))
	copy(buf, k)
	copy(buf[len(k):], v)
	s := borrow(buf) // nothing writes buf again
	return s[:len(k)], s[len(k):]
}

// putVal reuses the response's value buffer: the encode copies it into
// the write buffer before the next read overwrites it.
func (bytesCodec) putVal(resp *wire.Response, v string) {
	resp.BVal = append(resp.BVal[:0], v...)
}

func (bytesCodec) step(req *wire.Request, i int) (uint8, string) {
	return req.BSteps[i].Kind, string(req.BSteps[i].Key)
}

func (bytesCodec) stepView(req *wire.Request, i int) (uint8, string) {
	return req.BSteps[i].Kind, borrow(req.BSteps[i].Key)
}

// borrow views b as a string without copying it. Nothing writes a parsed
// request's bytes, so the string is as immutable as any other for as long
// as it is used — which the keyView contract bounds by the request.
func borrow(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

func (bytesCodec) addStep(resp *wire.Response, ok bool, v string) {
	resp.BSteps = append(resp.BSteps, wire.BStepResult{Ok: ok, Val: []byte(v)})
}

func (bytesCodec) addPair(resp *wire.Response, k, v string) {
	resp.BPairs = append(resp.BPairs, wire.BKV{Key: []byte(k), Val: []byte(v)})
}

// MapBackend serves a skip hash: the one Backend implementation,
// generic over the map's types and parameterised by the codec of the
// frame family that addresses it. The map is embedded, so the methods
// that need no translation — Sync, Snapshot and Close — are the map's
// own; the request-level methods below shadow the map's same-named
// ones.
type MapBackend[K comparable, V any] struct {
	*skiphash.Map[K, V]
	cd codec[K, V]
	// rangeBudget bounds a range response's encoded pairs so it always
	// fits one frame; clients paginate past it.
	rangeBudget int
}

func newBackend[K comparable, V any](m *skiphash.Map[K, V], cd codec[K, V]) *MapBackend[K, V] {
	return &MapBackend[K, V]{Map: m, cd: cd, rangeBudget: wire.MaxRangeBytes2}
}

// NewShardedBackend wraps an int64 map for the v1 ops — namespace 0.
// The name stays until a change to benchmark/ retires it.
func NewShardedBackend(s *skiphash.Map[int64, int64]) *MapBackend[int64, int64] {
	return newBackend[int64, int64](s, int64Codec{})
}

// Atomic implements Backend.
func (b *MapBackend[K, V]) Atomic(group []wire.Request, resps []wire.Response) (uint64, error) {
	cd := b.cd
	var runs uint64
	err := b.Map.Atomic(func(op *skiphash.Txn[K, V]) error {
		runs++
		var zero V
		for idx := range group {
			req, resp := &group[idx], &resps[idx]
			answer(resp, req)
			// A slot's value buffer is not kept across runs: a maximal
			// value would otherwise stay pinned in every response slot.
			resp.BVal = nil
			switch req.Op.Kind() {
			case wire.KindGet:
				v, ok := op.Lookup(cd.keyView(req))
				resp.Ok = ok
				cd.putVal(resp, v)
			case wire.KindInsert:
				resp.Ok = op.Insert(cd.entry(req))
			case wire.KindPut:
				resp.Ok = op.Put(cd.entry(req))
			case wire.KindDel:
				resp.Ok = op.Remove(cd.key(req))
			case wire.KindBatch:
				for si, n := 0, cd.numSteps(req); si < n; si++ {
					kind, k := cd.stepView(req, si)
					ok, out := false, zero
					switch kind {
					case wire.StepInsert:
						ok = op.Insert(cd.stepEntry(req, si))
					case wire.StepRemove:
						_, k = cd.step(req, si) // a removed key may be kept
						ok = op.Remove(k)
					case wire.StepLookup:
						out, ok = op.Lookup(k)
					}
					cd.addStep(resp, ok, out)
				}
			}
		}
		return nil
	})
	return runs - 1, err
}

// Get implements Backend.
func (b *MapBackend[K, V]) Get(req *wire.Request, resp *wire.Response) {
	v, ok := b.Lookup(b.cd.keyView(req))
	resp.Ok = ok
	b.cd.putVal(resp, v)
}

// Range implements Backend: [lo, hi] — or everything from lo when the
// request has no upper bound — in key order.
func (b *MapBackend[K, V]) Range(req *wire.Request, resp *wire.Response, scratch *any) {
	cd := b.cd
	budget, room := b.rangeBudget, int(req.Max)
	if room == 0 {
		room = -1 // no client bound
	}
	take := func(k K, v V) bool {
		cost := cd.pairCost(k, v)
		if budget < cost || room == 0 {
			return false
		}
		budget -= cost
		room--
		cd.addPair(resp, k, v)
		return true
	}
	if req.NoHi {
		b.AscendFrom(cd.key(req), take)
		return
	}
	// A bounded range is one consistent snapshot, so it is collected
	// whole before truncation.
	buf, _ := (*scratch).(*[]skiphash.Pair[K, V])
	if buf == nil {
		buf = new([]skiphash.Pair[K, V])
		*scratch = buf
	}
	*buf = b.Map.Range(cd.key(req), cd.hi(req), (*buf)[:0])
	for _, p := range *buf {
		if !take(p.Key, p.Val) {
			break
		}
	}
}

// Durable implements Backend.
func (b *MapBackend[K, V]) Durable() bool { return b.Persister() != nil }
