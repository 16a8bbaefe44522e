package client

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/wire"
)

// Pair is a key/value pair returned by Range and RangeFrom.
type Pair[K, V any] struct {
	Key K
	Val V
}

// Step is one primitive of an Atomic batch: StepInsert, StepRemove or
// StepLookup of Key; Val is read by StepInsert only.
type Step[K, V any] struct {
	Kind uint8
	Key  K
	Val  V
}

// StepResult is one Atomic step's outcome: Ok is the insert/remove
// success or the lookup's presence, Val the looked-up value (the zero V
// for other steps and absent keys).
type StepResult[V any] struct {
	Ok  bool
	Val V
}

// Map is one map the server serves: the default int64 map (namespace 0,
// v1 frames), which the Client embeds, or a byte-string namespace (v2
// frames), which CreateNamespace and Namespace return. Its methods
// behave like the embedded map's, with an error result added for the
// transport, and round-robin the Client's connection pool; for
// pipelining, issue Conn.Start with this map's ID.
//
// A namespace's keys are bounded by wire.MaxKeyLen, its values by
// wire.MaxValLen and its batches by wire.MaxBatchBytes2. Every method
// rejects an oversized argument before writing anything, because the
// server answers an oversized frame by tearing down the connection, and
// every pipelined call on it with it.
type Map[K, V any] struct {
	c    *Client
	id   uint32
	name string
	cd   codec[K, V]
}

// codec is the only place the two frame families differ, as on the
// server: int64Codec fills the v1 fixed-width fields, bytesCodec the v2
// byte strings. The request builders return the request by value so
// that it does not escape through the interface call.
type codec[K, V any] interface {
	// point builds a point op (v is the zero V for Get and Remove, and
	// both are zero for Sync and Snapshot); op is the v1 op.
	point(op wire.Op, k K, v V) (wire.Request, error)
	// span builds a range over [lo, hi], or [lo, ∞) when noHi is set.
	span(lo, hi K, noHi bool, max uint32) (wire.Request, error)
	batch(steps []Step[K, V]) (wire.Request, error)
	val(resp wire.Response) V
	pairs(resp wire.Response) []Pair[K, V]
	results(resp wire.Response) []StepResult[V]
}

// ID is the map's wire namespace id (0 for the default map), for
// hand-rolled pipelined requests.
func (m *Map[K, V]) ID() uint32 { return m.id }

// Name is the map's namespace name ("default" for the default map).
func (m *Map[K, V]) Name() string { return m.name }

// do sends a request built by the codec to this map over the next
// connection of the pool.
func (m *Map[K, V]) do(req wire.Request, err error) (wire.Response, error) {
	if err != nil {
		return wire.Response{}, err
	}
	req.NS = m.id
	return m.c.pick().Do(&req)
}

// Get returns the value stored under k. A returned []byte is owned by
// the caller (see Call lifetime in the package doc).
func (m *Map[K, V]) Get(k K) (v V, ok bool, err error) {
	resp, err := m.do(m.cd.point(wire.OpGet, k, v))
	return m.cd.val(resp), resp.Ok, err
}

// Insert adds (k, v) if k is absent and reports whether it did.
func (m *Map[K, V]) Insert(k K, v V) (bool, error) {
	resp, err := m.do(m.cd.point(wire.OpInsert, k, v))
	return resp.Ok, err
}

// Put sets k to v unconditionally, reporting whether a previous value
// was replaced.
func (m *Map[K, V]) Put(k K, v V) (bool, error) {
	resp, err := m.do(m.cd.point(wire.OpPut, k, v))
	return resp.Ok, err
}

// Remove deletes k and reports whether it was present.
func (m *Map[K, V]) Remove(k K) (bool, error) {
	resp, err := m.do(m.cd.point(wire.OpDel, k, *new(V)))
	return resp.Ok, err
}

// Range returns every pair with lo <= key <= hi in key order (numeric
// for int64 keys, lexicographic for byte strings); max > 0 truncates
// the result server-side, and a negative max is an error. A response is
// additionally capped so it fits one frame (wire.MaxRangePairs,
// wire.MaxRangeBytes2); callers wanting more paginate, resuming just
// past their last key (+1, or + "\x00").
func (m *Map[K, V]) Range(lo, hi K, max int) ([]Pair[K, V], error) {
	return m.scan(lo, hi, false, max)
}

// RangeFrom returns the pairs with key >= lo, with no upper bound,
// under the same max and caps as Range. On a namespace map it is weakly
// consistent past 64 pairs: the server reads it in 64-pair
// transactions, each an atomic snapshot, so an update that commits
// meanwhile may show in a later chunk and not in an earlier one. On the
// default int64 map it is a Range up to math.MaxInt64, and like every
// bounded Range one atomic snapshot.
func (m *Map[K, V]) RangeFrom(lo K, max int) ([]Pair[K, V], error) {
	return m.scan(lo, *new(K), true, max)
}

func (m *Map[K, V]) scan(lo, hi K, noHi bool, max int) ([]Pair[K, V], error) {
	if max < 0 || uint64(max) > math.MaxUint32 {
		return nil, fmt.Errorf("client: range max %d is outside [0, %d]", max, uint32(math.MaxUint32))
	}
	resp, err := m.do(m.cd.span(lo, hi, noHi, uint32(max)))
	return m.cd.pairs(resp), err
}

// Atomic applies steps as one transaction on the server and returns
// each step's result. All steps take effect at a single commit point,
// or none do.
func (m *Map[K, V]) Atomic(steps []Step[K, V]) ([]StepResult[V], error) {
	if len(steps) > wire.MaxBatchSteps {
		return nil, fmt.Errorf("client: batch of %d steps exceeds wire.MaxBatchSteps (%d)",
			len(steps), wire.MaxBatchSteps)
	}
	resp, err := m.do(m.cd.batch(steps))
	return m.cd.results(resp), err
}

// Sync forces this map's WAL to durable storage.
func (m *Map[K, V]) Sync() error {
	_, err := m.do(m.cd.point(wire.OpSync, *new(K), *new(V)))
	return err
}

// Snapshot makes the server write a durable snapshot of this map now.
func (m *Map[K, V]) Snapshot() error {
	_, err := m.do(m.cd.point(wire.OpSnapshot, *new(K), *new(V)))
	return err
}

// conv converts a slice element by element; nil stays nil.
func conv[T, U any](in []T, f func(T) U) []U {
	if in == nil {
		return nil
	}
	out := make([]U, len(in))
	for i := range in {
		out[i] = f(in[i])
	}
	return out
}

// int64Codec is the v1 family of the default map. v1 has no open upper
// bound, so RangeFrom asks for [lo, math.MaxInt64].
type int64Codec struct{}

func (int64Codec) point(op wire.Op, k, v int64) (wire.Request, error) {
	return wire.Request{Op: op, Key: k, Val: v}, nil
}

func (int64Codec) span(lo, hi int64, noHi bool, max uint32) (wire.Request, error) {
	if noHi {
		hi = math.MaxInt64
	}
	return wire.Request{Op: wire.OpRange, Key: lo, Val: hi, Max: max}, nil
}

func (int64Codec) batch(steps []Step[int64, int64]) (wire.Request, error) {
	ws := conv(steps, func(s Step[int64, int64]) wire.Step { return wire.Step(s) })
	return wire.Request{Op: wire.OpBatch, Steps: ws}, nil
}

func (int64Codec) val(resp wire.Response) int64 { return resp.Val }

func (int64Codec) pairs(resp wire.Response) []Pair[int64, int64] {
	return conv(resp.Pairs, func(p wire.KV) Pair[int64, int64] { return Pair[int64, int64](p) })
}

func (int64Codec) results(resp wire.Response) []StepResult[int64] {
	return conv(resp.Steps, func(r wire.StepResult) StepResult[int64] { return StepResult[int64]{r.Ok, r.Out} })
}

// bytesCodec is the v2 family of the namespaces. It numbers its data
// ops in the v1 order from wire.OpGet2, and checks every size bound
// before anything is written.
type bytesCodec struct{}

func v2(op wire.Op) wire.Op { return op - wire.OpGet + wire.OpGet2 }

// fits rejects a key over wire.MaxKeyLen or a value over wire.MaxValLen.
func fits(k, v []byte) error {
	if len(k) > wire.MaxKeyLen {
		return fmt.Errorf("client: key of %d bytes exceeds wire.MaxKeyLen (%d)", len(k), wire.MaxKeyLen)
	}
	if len(v) > wire.MaxValLen {
		return fmt.Errorf("client: value of %d bytes exceeds wire.MaxValLen (%d)", len(v), wire.MaxValLen)
	}
	return nil
}

func (bytesCodec) point(op wire.Op, k, v []byte) (wire.Request, error) {
	return wire.Request{Op: v2(op), BKey: k, BVal: v}, fits(k, v)
}

func (bytesCodec) span(lo, hi []byte, noHi bool, max uint32) (wire.Request, error) {
	return wire.Request{Op: wire.OpRange2, BKey: lo, BVal: hi, Max: max, NoHi: noHi},
		errors.Join(fits(lo, nil), fits(hi, nil))
}

func (bytesCodec) batch(steps []Step[[]byte, []byte]) (wire.Request, error) {
	ws := conv(steps, func(s Step[[]byte, []byte]) wire.BStep {
		if s.Kind != wire.StepInsert {
			s.Val = nil // only an insert carries its value
		}
		return wire.BStep(s)
	})
	if b := wire.BatchBytes2(ws); b > wire.MaxBatchBytes2 {
		return wire.Request{}, fmt.Errorf("client: batch of %d encoded bytes exceeds wire.MaxBatchBytes2 (%d)",
			b, wire.MaxBatchBytes2)
	}
	for _, s := range ws {
		if err := fits(s.Key, s.Val); err != nil {
			return wire.Request{}, err
		}
	}
	return wire.Request{Op: wire.OpBatch2, BSteps: ws}, nil
}

func (bytesCodec) val(resp wire.Response) []byte { return resp.BVal }

func (bytesCodec) pairs(resp wire.Response) []Pair[[]byte, []byte] {
	return conv(resp.BPairs, func(p wire.BKV) Pair[[]byte, []byte] { return Pair[[]byte, []byte](p) })
}

func (bytesCodec) results(resp wire.Response) []StepResult[[]byte] {
	return conv(resp.BSteps, func(r wire.BStepResult) StepResult[[]byte] { return StepResult[[]byte](r) })
}
