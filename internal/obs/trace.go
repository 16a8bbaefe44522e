package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceEntry is one captured slow operation.
type TraceEntry struct {
	// UnixNanos stamps the operation's completion.
	UnixNanos int64 `json:"unix_nanos"`
	// Op is the wire op name ("Get", "Put2", ...).
	Op string `json:"op"`
	// Namespace names the namespace the op addressed ("default" for
	// the v1 map).
	Namespace string `json:"namespace"`
	// Path is the execution path the op's run took: "reads" (the
	// read-segregated fast path), "atomic" (a coalesced transaction),
	// or "standalone".
	Path string `json:"path"`
	// KeyHash fingerprints the op's key without retaining it.
	KeyHash uint64 `json:"key_hash"`
	// Duration is arrival-to-response-flushed latency.
	Duration time.Duration `json:"duration_nanos"`
	// Aborts is how many times the coalesced transaction the op ran in
	// re-executed after an abort: exact, and that run's alone. An op
	// that ran in no such transaction (a pure-Get run, a Range, the
	// server's own ops) reports 0.
	Aborts uint64 `json:"aborts"`
}

// Tracer is a fixed-capacity ring of slow operations: entries with
// latency at or above the threshold. Disabled (negative threshold) it
// costs one atomic load per candidate; recording takes a mutex, which
// only slow ops — rare by definition — pay.
type Tracer struct {
	threshold atomic.Int64 // nanos; negative = disabled
	mu        sync.Mutex
	ring      []TraceEntry
	total     uint64 // entries ever recorded
}

// NewTracer returns a disabled tracer holding up to capacity entries.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	t := &Tracer{ring: make([]TraceEntry, 0, capacity)}
	t.threshold.Store(-1)
	return t
}

// SetThreshold arms the tracer for ops taking d or longer; zero traces
// everything, negative disables.
func (t *Tracer) SetThreshold(d time.Duration) { t.threshold.Store(int64(d)) }

// Slow reports whether an op of duration d should be recorded.
func (t *Tracer) Slow(d time.Duration) bool {
	thr := t.threshold.Load()
	return thr >= 0 && int64(d) >= thr
}

// Enabled reports whether the tracer is armed at all — the cheap gate
// callers use before doing any per-batch bookkeeping for Record.
func (t *Tracer) Enabled() bool { return t.threshold.Load() >= 0 }

// Record appends one entry, evicting the oldest at capacity. Callers
// gate on Slow first.
func (t *Tracer) Record(e TraceEntry) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		copy(t.ring, t.ring[1:])
		t.ring[len(t.ring)-1] = e
	}
	t.total++
	t.mu.Unlock()
}

// Total returns how many entries were ever recorded (including
// evicted ones).
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dump returns the retained entries, oldest first.
func (t *Tracer) Dump() []TraceEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEntry, len(t.ring))
	copy(out, t.ring)
	return out
}

// WriteText renders the retained entries one per line (the drain dump
// and the /debug/slowops body).
func (t *Tracer) WriteText(w io.Writer) {
	entries := t.Dump()
	fmt.Fprintf(w, "slow ops: %d retained, %d recorded, threshold %v\n",
		len(entries), t.Total(), time.Duration(t.threshold.Load()))
	for _, e := range entries {
		fmt.Fprintf(w, "%s op=%s ns=%s path=%s key=%#016x dur=%v aborts=%d\n",
			time.Unix(0, e.UnixNanos).UTC().Format("15:04:05.000"),
			e.Op, e.Namespace, e.Path, e.KeyHash, e.Duration, e.Aborts)
	}
}

// String renders WriteText to a string.
func (t *Tracer) String() string {
	var b strings.Builder
	t.WriteText(&b)
	return b.String()
}

// ServeHTTP serves the text dump (the /debug/slowops endpoint).
func (t *Tracer) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	t.WriteText(w)
}

// HashBytes fingerprints a byte key for TraceEntry.KeyHash (FNV-1a).
func HashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
