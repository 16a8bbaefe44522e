// Package linearize provides history recording and linearizability
// checking for the ordered maps in this repository.
//
// # History format
//
// A history is a flat slice of completed operations ([Op]). Every Op
// carries the invoking client, the operation kind with its arguments
// and recorded outputs, and two timestamps: Call, drawn immediately
// before the operation was invoked, and Return, drawn immediately
// after it returned. Timestamps come from one shared atomic counter
// ([Recorder]), so they form a total order consistent with real time:
// if a.Return < b.Call then operation a really did complete before b
// was invoked. Concurrent operations have overlapping [Call, Return]
// intervals, and the checker is free to order them either way.
//
// # Checker
//
// [Check] decides whether a history is linearizable with respect to
// the sequential ordered-map specification: does some total order of
// the operations exist that (1) respects the real-time partial order
// above and (2) makes every recorded output correct when the
// operations are applied sequentially? The search is the classic
// Wing & Gong algorithm with Lowe's memoization (the same shape as
// Porcupine's): walk the history, tentatively linearize any operation
// whose call is enabled, cache visited (linearized-set, state) pairs,
// and backtrack on dead ends.
//
// # Partitioning and its limits
//
// Linearizability is compositional per object, and for a map each key
// behaves as an independent object, so the checker first partitions the
// history: single-key operations (Insert/Remove/Lookup and batch steps)
// partition by key; multi-key operations (Range, Ceil/Floor/Succ/Pred,
// multi-key batches) fuse the partitions of every key in their
// footprint. A history of purely single-key traffic therefore checks in
// near-linear time however long it is, while a history with
// whole-universe range queries collapses into one partition whose check
// is worst-case exponential — that is the fundamental limit of
// linearizability checking, not an implementation shortcut. CheckOpts
// accepts a search budget; when it is exhausted the result is reported
// as Unknown rather than pretending either verdict.
//
// # Reproducing a failure
//
// The harnesses in internal/maptest and cmd/skipstress generate every
// workload from a seed; a failure report prints the seed and the
// offending partition's operations (see FormatOps). Re-running with the
// same seed regenerates the identical operation streams; combined with
// the deterministic schedule hooks in internal/stm (StepScheduler,
// AbortInjector) the interleaving itself is replayed from the seed.
package linearize

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/kv"
)

// KV is a key/value pair as produced by range queries.
type KV = kv.KV

// Kind identifies an operation in a history.
type Kind uint8

const (
	// Insert adds Key->Val if absent; Ok reports whether it did.
	Insert Kind = iota
	// Remove deletes Key; Ok reports whether it was present.
	Remove
	// Lookup reads Key; Ok reports presence, OutVal the value.
	Lookup
	// Ceil finds the smallest key >= Key (outputs OutKey/OutVal/Ok).
	Ceil
	// Floor finds the largest key <= Key.
	Floor
	// Succ finds the smallest key > Key.
	Succ
	// Pred finds the largest key < Key.
	Pred
	// Range collects [Lo, Hi] in key order into Pairs.
	Range
	// Batch applies Steps atomically, in order.
	Batch
	// Put sets Key->Val whether or not Key is present; Ok reports
	// whether it replaced a value.
	Put
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Insert:
		return "Insert"
	case Remove:
		return "Remove"
	case Lookup:
		return "Lookup"
	case Ceil:
		return "Ceil"
	case Floor:
		return "Floor"
	case Succ:
		return "Succ"
	case Pred:
		return "Pred"
	case Range:
		return "Range"
	case Batch:
		return "Batch"
	case Put:
		return "Put"
	}
	return "?"
}

// Step is one primitive inside an atomic batch: Insert, Remove, or
// Lookup with the same argument/output conventions as the standalone
// kinds.
type Step struct {
	Kind Kind
	Key  int64
	Val  int64
	Ok   bool
	Out  int64 // Lookup's value
}

// ApplySteps runs batch steps against any map's primitive operations,
// filling in each step's outputs. It is the one dispatch loop every
// Batcher adapter shares, so step semantics cannot drift between them;
// callers re-executing a transactional closure may call it repeatedly
// (each run overwrites the outputs).
func ApplySteps(steps []Step,
	insert func(k, v int64) bool, remove func(k int64) bool, lookup func(k int64) (int64, bool)) {
	for i := range steps {
		s := &steps[i]
		switch s.Kind {
		case Insert:
			s.Ok = insert(s.Key, s.Val)
		case Remove:
			s.Ok = remove(s.Key)
		case Lookup:
			s.Out, s.Ok = lookup(s.Key)
		}
	}
}

// Op is one completed operation of a history.
type Op struct {
	// Client identifies the invoking client; it is informational (the
	// real-time order lives in the timestamps).
	Client int
	// Call and Return are the invocation and response timestamps, drawn
	// from one Recorder. Call < Return, and all stamps are unique.
	Call, Return int64

	Kind Kind
	// Key is the argument key (single-key ops and point queries); Val
	// the inserted value.
	Key, Val int64
	// Lo, Hi bound a Range.
	Lo, Hi int64

	// Ok is the success/presence output.
	Ok bool
	// OutKey, OutVal are point-query outputs (OutVal doubles as
	// Lookup's value).
	OutKey, OutVal int64
	// Pairs is a Range's output.
	Pairs []KV
	// Steps is a Batch's body, outputs filled in.
	Steps []Step
}

// Recorder issues history timestamps from one atomic counter and owns
// the per-client operation logs. Each client goroutine uses its own
// Client; after all clients are done, Merge collects the history.
type Recorder struct {
	clock atomic.Int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Now draws the next timestamp.
func (r *Recorder) Now() int64 { return r.clock.Add(1) }

// NewClient returns a log for one client goroutine. id should be
// unique per client; the Client is not safe for concurrent use.
func (r *Recorder) NewClient(id int) *Client {
	return &Client{r: r, id: id}
}

// Client is a single goroutine's operation log.
type Client struct {
	r   *Recorder
	id  int
	ops []Op
}

// Now draws a timestamp from the shared counter.
func (c *Client) Now() int64 { return c.r.Now() }

// Add appends a completed operation, stamping its Client field.
func (c *Client) Add(op Op) {
	op.Client = c.id
	c.ops = append(c.ops, op)
}

// Ops returns the client's log.
func (c *Client) Ops() []Op { return c.ops }

// Merge concatenates client logs into one history.
func Merge(clients ...*Client) []Op {
	var out []Op
	for _, c := range clients {
		out = append(out, c.ops...)
	}
	return out
}

// FormatOps renders a history fragment for failure reports: one line
// per operation, sorted by invocation time.
func FormatOps(ops []Op) string {
	sorted := make([]Op, len(ops))
	copy(sorted, ops)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Call < sorted[j].Call })
	var b strings.Builder
	for _, op := range sorted {
		fmt.Fprintf(&b, "  client %d  [%d,%d]  %s\n", op.Client, op.Call, op.Return, formatOp(op))
	}
	return b.String()
}

func formatOp(op Op) string {
	switch op.Kind {
	case Insert:
		return fmt.Sprintf("Insert(%d,%d) -> %v", op.Key, op.Val, op.Ok)
	case Remove:
		return fmt.Sprintf("Remove(%d) -> %v", op.Key, op.Ok)
	case Put:
		return fmt.Sprintf("Put(%d,%d) -> %v", op.Key, op.Val, op.Ok)
	case Lookup:
		if op.Ok {
			return fmt.Sprintf("Lookup(%d) -> %d,true", op.Key, op.OutVal)
		}
		return fmt.Sprintf("Lookup(%d) -> miss", op.Key)
	case Ceil, Floor, Succ, Pred:
		if op.Ok {
			return fmt.Sprintf("%s(%d) -> %d,%d", op.Kind, op.Key, op.OutKey, op.OutVal)
		}
		return fmt.Sprintf("%s(%d) -> none", op.Kind, op.Key)
	case Range:
		var b strings.Builder
		fmt.Fprintf(&b, "Range[%d,%d] -> {", op.Lo, op.Hi)
		for i, p := range op.Pairs {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%d:%d", p.Key, p.Val)
		}
		b.WriteString("}")
		return b.String()
	case Batch:
		var b strings.Builder
		b.WriteString("Batch{")
		for i, s := range op.Steps {
			if i > 0 {
				b.WriteString("; ")
			}
			switch s.Kind {
			case Insert:
				fmt.Fprintf(&b, "Insert(%d,%d)->%v", s.Key, s.Val, s.Ok)
			case Remove:
				fmt.Fprintf(&b, "Remove(%d)->%v", s.Key, s.Ok)
			case Lookup:
				if s.Ok {
					fmt.Fprintf(&b, "Lookup(%d)->%d", s.Key, s.Out)
				} else {
					fmt.Fprintf(&b, "Lookup(%d)->miss", s.Key)
				}
			}
		}
		b.WriteString("}")
		return b.String()
	}
	return op.Kind.String()
}
