package obs

import (
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentCounters hammers a counter, a gauge's source and a
// histogram from many goroutines (run under -race in CI) and checks the
// totals.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("skiphash_test_ops_total", "ops")
	var depth atomic.Int64
	r.GaugeFunc("skiphash_test_depth", "depth", func() float64 { return float64(depth.Load()) })
	h := r.Histogram("skiphash_test_latency_seconds", "latency", LatencyBounds, 1e-9)
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				depth.Add(1)
				depth.Add(-1)
				h.Observe(uint64(id*per + i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if out := string(r.Render()); !strings.Contains(out, "\nskiphash_test_depth 0\n") {
		t.Errorf("gauge not rendered at 0:\n%s", out)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	var wantSum uint64
	for i := uint64(0); i < workers*per; i++ {
		wantSum += i
	}
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum = %d, want %d", got, wantSum)
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound
// contract: a value equal to a bound lands in that bound's bucket, one
// above lands in the next, and values above the last bound land in
// +Inf only.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]uint64{10, 20}, 1)
	h.Observe(0)  // first bucket
	h.Observe(10) // first bucket (inclusive)
	h.Observe(11) // second bucket
	h.Observe(20) // second bucket
	h.Observe(21) // +Inf
	buckets, _, sum := h.snapshot()
	want := []uint64{2, 2, 1}
	for i, w := range want {
		if buckets[i] != w {
			t.Errorf("bucket[%d] = %d, want %d (all: %v)", i, buckets[i], w, buckets)
		}
	}
	if sum != 0+10+11+20+21 {
		t.Errorf("sum = %d, want 62", sum)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
}

// TestExpositionGolden locks the exposition format byte-for-byte:
// family ordering (registration order), label rendering, cumulative le
// buckets, scaled _sum.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("skiphash_stm_commits_total", "Committed transactions.")
	c.Add(42)
	r.CounterFunc("skiphash_persist_late_syncs_total", "Syncs lost to shutdown races.",
		func() uint64 { return 3 })
	r.GaugeFunc("skiphash_server_queue_depth", "Queued requests.",
		func() float64 { return 7 }, Label{"conn", "all"})
	r.GaugeFunc("skiphash_repl_lag_stamps", "Primary stamp minus watermark.",
		func() float64 { return 1.5 })
	h := r.Histogram("skiphash_wal_fsync_seconds", "Fsync latency.",
		[]uint64{1_000_000, 10_000_000}, 1e-9, Label{"ns", "default"})
	h.Observe(500_000)    // le 0.001
	h.Observe(1_000_000)  // le 0.001 (inclusive)
	h.Observe(2_000_000)  // le 0.01
	h.Observe(20_000_000) // +Inf
	const want = `# HELP skiphash_stm_commits_total Committed transactions.
# TYPE skiphash_stm_commits_total counter
skiphash_stm_commits_total 42
# HELP skiphash_persist_late_syncs_total Syncs lost to shutdown races.
# TYPE skiphash_persist_late_syncs_total counter
skiphash_persist_late_syncs_total 3
# HELP skiphash_server_queue_depth Queued requests.
# TYPE skiphash_server_queue_depth gauge
skiphash_server_queue_depth{conn="all"} 7
# HELP skiphash_repl_lag_stamps Primary stamp minus watermark.
# TYPE skiphash_repl_lag_stamps gauge
skiphash_repl_lag_stamps 1.5
# HELP skiphash_wal_fsync_seconds Fsync latency.
# TYPE skiphash_wal_fsync_seconds histogram
skiphash_wal_fsync_seconds_bucket{ns="default",le="0.001"} 2
skiphash_wal_fsync_seconds_bucket{ns="default",le="0.01"} 3
skiphash_wal_fsync_seconds_bucket{ns="default",le="+Inf"} 4
skiphash_wal_fsync_seconds_sum{ns="default"} 0.0235
skiphash_wal_fsync_seconds_count{ns="default"} 4
`
	got := string(r.Render())
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryIdempotentAndUnregister checks that re-registration
// returns the same metric and that Unregister removes exactly the
// addressed child (per-namespace lifecycle).
func TestRegistryIdempotentAndUnregister(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("skiphash_x_total", "x", Label{"ns", "a"})
	b := r.Counter("skiphash_x_total", "x", Label{"ns", "b"})
	if a == b {
		t.Fatal("distinct labels returned the same counter")
	}
	if again := r.Counter("skiphash_x_total", "x", Label{"ns", "a"}); again != a {
		t.Fatal("re-registration returned a new counter")
	}
	a.Add(1)
	b.Add(2)
	if !r.Unregister("skiphash_x_total", Label{"ns", "a"}) {
		t.Fatal("Unregister(ns=a) = false")
	}
	out := string(r.Render())
	if strings.Contains(out, `ns="a"`) {
		t.Errorf("dropped series still rendered:\n%s", out)
	}
	if !strings.Contains(out, `skiphash_x_total{ns="b"} 2`) {
		t.Errorf("surviving series missing:\n%s", out)
	}
	if r.Unregister("skiphash_x_total", Label{"ns", "b"}); strings.Contains(string(r.Render()), "skiphash_x_total") {
		t.Error("empty family still rendered")
	}
}

// TestServeHTTP checks the handler's content type and body.
func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("skiphash_y_total", "y").Add(9)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "skiphash_y_total 9") {
		t.Errorf("body missing counter:\n%s", rec.Body.String())
	}
}

// TestSamples checks the flattened view histograms included.
func TestSamples(t *testing.T) {
	r := NewRegistry()
	r.Counter("skiphash_a_total", "a").Add(5)
	h := r.Histogram("skiphash_b_seconds", "b", []uint64{1000}, 1e-9)
	h.Observe(500)
	h.Observe(2000)
	got := map[string]float64{}
	for _, s := range r.Samples() {
		got[s.Name+s.Labels] = s.Value
	}
	if got["skiphash_a_total"] != 5 {
		t.Errorf("counter sample = %v", got["skiphash_a_total"])
	}
	if got["skiphash_b_seconds_count"] != 2 {
		t.Errorf("histogram count sample = %v", got["skiphash_b_seconds_count"])
	}
	if want := 2500e-9; got["skiphash_b_seconds_sum"] != want {
		t.Errorf("histogram sum sample = %v, want %v", got["skiphash_b_seconds_sum"], want)
	}
}

// exposition parses a rendering into series → value, leaving out the
// histograms' _bucket lines, which Samples does not flatten.
func exposition(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(string(r.Render()), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		series := line[:i]
		if strings.Contains(series, "_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable line %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// TestSamplesMatchExposition checks that the flattened samples are the
// exposition's values: every series WriteTo renders (histograms' _count
// and _sum included) has exactly one sample, with the same value.
func TestSamplesMatchExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("skiphash_a_total", "a", Label{"ns", "x"}).Add(5)
	r.Counter("skiphash_a_total", "a", Label{"ns", "y"}).Add(1 << 40)
	r.CounterFunc("skiphash_b_total", "b", func() uint64 { return 12 })
	r.GaugeFunc("skiphash_c", "c", func() float64 { return -2.25 })
	lat := r.Histogram("skiphash_d_seconds", "d", LatencyBounds, 1e-9, Label{"ns", "x"})
	size := r.Histogram("skiphash_e", "e", SizeBounds, 1)
	for i := uint64(1); i <= 100; i++ {
		lat.Observe(i * 7_919)
		size.Observe(i % 70)
	}
	r.Histogram("skiphash_d_seconds", "d", LatencyBounds, 1e-9, Label{"ns", "y"})
	r.Counter("skiphash_k_total", "k", Label{"op", "Get"}, Label{"path", "a\"b\\c\nd"}).Inc()
	want := exposition(t, r)
	if series := `skiphash_k_total{op="Get",path="a\"b\\c\nd"}`; want[series] != 1 {
		t.Errorf("escaped labels not rendered as %s:\n%s", series, r.Render())
	}
	got := r.Samples()
	if len(got) != len(want) {
		t.Errorf("%d samples, %d rendered series", len(got), len(want))
	}
	for _, s := range got {
		series := s.Name + s.Labels
		v, ok := want[series]
		if !ok {
			t.Errorf("sample %s is not rendered", series)
		} else if s.Value != v {
			t.Errorf("sample %s = %v, rendered %v", series, s.Value, v)
		}
	}
	for _, series := range []string{`skiphash_d_seconds_count{ns="x"}`, `skiphash_d_seconds_sum{ns="x"}`, "skiphash_e_count", "skiphash_e_sum"} {
		if want[series] == 0 {
			t.Errorf("%s rendered 0; the check compares nothing", series)
		}
	}
}

// TestRegistryConcurrentLifecycle renders and samples while another
// goroutine registers and unregisters labelled series of every kind, as
// NsCreate and NsDrop do (run under -race in CI): a walk never reads a
// series before its reader is set, nor one being removed.
func TestRegistryConcurrentLifecycle(t *testing.T) {
	r := NewRegistry()
	r.Counter("skiphash_f_total", "f").Add(3)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l := Label{"ns", fmt.Sprint("n", i%4)}
			r.Histogram("skiphash_g_seconds", "g", LatencyBounds, 1e-9, l).Observe(uint64(i))
			r.GaugeFunc("skiphash_h", "h", func() float64 { return float64(i) }, l)
			r.Counter("skiphash_i_total", "i", l).Inc()
			r.CounterFunc("skiphash_j_total", "j", func() uint64 { return uint64(i) }, l)
			if i%2 == 1 {
				r.Unregister("skiphash_g_seconds", l)
				r.Unregister("skiphash_h", l)
				r.Unregister("skiphash_i_total", l)
				r.Unregister("skiphash_j_total", l)
			}
		}
	}()
	for i := 0; i < 300; i++ {
		if out := string(r.Render()); !strings.Contains(out, "\nskiphash_f_total 3\n") {
			t.Fatalf("render %d lost the stable series:\n%s", i, out)
		}
		if len(r.Samples()) == 0 {
			t.Fatalf("sample %d is empty", i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTracer covers threshold gating, ring eviction, and ordering.
func TestTracer(t *testing.T) {
	tr := NewTracer(3)
	if tr.Slow(time.Hour) {
		t.Error("disabled tracer reported slow")
	}
	tr.SetThreshold(10 * time.Millisecond)
	if tr.Slow(9 * time.Millisecond) {
		t.Error("below-threshold op reported slow")
	}
	if !tr.Slow(10 * time.Millisecond) {
		t.Error("at-threshold op not slow")
	}
	for i := 0; i < 5; i++ {
		tr.Record(TraceEntry{KeyHash: uint64(i), Op: "Get", Duration: time.Second})
	}
	got := tr.Dump()
	if len(got) != 3 || tr.Total() != 5 {
		t.Fatalf("dump len %d total %d, want 3/5", len(got), tr.Total())
	}
	for i, e := range got {
		if e.KeyHash != uint64(i+2) {
			t.Errorf("entry %d key %d, want %d (oldest-first after eviction)", i, e.KeyHash, i+2)
		}
	}
	tr.SetThreshold(0)
	if !tr.Slow(0) {
		t.Error("zero threshold should trace everything")
	}
	if s := tr.String(); !strings.Contains(s, "op=Get") {
		t.Errorf("text dump missing entries:\n%s", s)
	}
}
