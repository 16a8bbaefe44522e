package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"
)

// appendOps encodes the first n ops of s.
func appendOps(dst []byte, s *stream, n uint64) []byte {
	for i := uint64(0); i < n; i++ {
		o := s.at(i)
		dst = append(dst, byte(o.kind))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(o.key))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(o.val))
	}
	return dst
}

func TestStreamIsAPureFunctionOfSeedThreadIndex(t *testing.T) {
	for _, w := range workloads {
		a := appendOps(nil, newStream(w, 7, 1, threads), 4096)
		b := appendOps(nil, newStream(w, 7, 1, threads), 4096)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed and thread gave different op streams", w.name)
		}
		if c := appendOps(nil, newStream(w, 8, 1, threads), 4096); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
		if d := appendOps(nil, newStream(w, 7, 0, threads), 4096); bytes.Equal(a, d) {
			t.Errorf("%s: threads 0 and 1 gave the same op stream", w.name)
		}
		// Random access agrees with the sequence, and every point op
		// stays on the issuing thread's keys, inside the universe.
		s := newStream(w, 7, 1, threads)
		for i := uint64(0); i < 4096; i++ {
			o := s.at(i)
			if o.key < 0 || o.key >= w.universe || o.key%threads != 1 {
				t.Fatalf("%s: op %d has key %d outside thread 1's share of [0, %d)", w.name, i, o.key, w.universe)
			}
			if o.val < 0 {
				t.Fatalf("%s: op %d has negative value %d (collides with the absent marker)", w.name, i, o.val)
			}
		}
	}
}

func TestStreamMix(t *testing.T) {
	for _, w := range workloads {
		s := newStream(w, 3, 0, threads)
		var n [4]float64
		const total = 200_000
		for i := uint64(0); i < total; i++ {
			n[s.at(i).kind]++
		}
		reads := n[opGet] + n[opRange]
		if math.Abs(reads/total-float64(w.readPct)/100) > 0.01 ||
			math.Abs(n[opInsert]/total-float64(w.insertPct)/100) > 0.01 {
			t.Errorf("%s: mix read %.3f insert %.3f, want %d%% / %d%%", w.name, reads/total, n[opInsert]/total, w.readPct, w.insertPct)
		}
		if w.ranges != (n[opRange] > 0) || w.ranges == (n[opGet] > 0) {
			t.Errorf("%s: wrong read kind: %v gets, %v ranges", w.name, n[opGet], n[opRange])
		}
	}
}

func TestZipfTopRankMass(t *testing.T) {
	const n, theta, draws = 1 << 17, 0.99, 2_000_000
	z := newZipf(n, theta)
	var top, second float64
	for i := uint64(0); i < draws; i++ {
		switch z.rank(float64(mix64(i)>>11) / (1 << 53)) {
		case 0:
			top++
		case 1:
			second++
		}
	}
	zn := zeta(n, theta)
	for rank, got := range []float64{top / draws, second / draws} {
		want := 1 / (math.Pow(float64(rank+1), theta) * zn)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("rank %d mass %.5f, theory %.5f: off by more than 2%%", rank, got, want)
		}
	}
	// The scramble is a bijection on the slots, so the hot ranks land
	// on distinct keys.
	seen := make(map[uint64]bool, n)
	for r := uint64(0); r < n; r++ {
		seen[(r*zipfScramble)&(n-1)] = true
	}
	if len(seen) != n {
		t.Errorf("rank scramble maps %d ranks onto %d slots", n, len(seen))
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestHistQuantile(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 1000; v++ {
		h.record(v)
	}
	if got := h.quantile(0.5); math.Abs(got-500) > 1.5 {
		t.Errorf("p50 of 1..1000 = %v", got)
	}
	if got := h.quantile(0.99); math.Abs(got-990) > 1.5 {
		t.Errorf("p99 of 1..1000 = %v", got)
	}
	// Above the linear range a value lands within 0.1% of itself.
	for _, v := range []int64{2047, 2048, 5000, 123_456, 98_765_432_100} {
		lo, hi := histBounds(histBin(v))
		if float64(v) < lo || float64(v) >= hi || (hi-lo)/lo > 0.001 {
			t.Errorf("value %d binned into [%v, %v)", v, lo, hi)
		}
	}
	// Interpolation: 3 of 4 samples on one nanosecond value still give a
	// fractional median rather than the bare integer.
	g := newHist()
	for _, v := range []int64{200, 200, 200, 300} {
		g.record(v)
	}
	if got := g.quantile(0.5); got <= 200 || got >= 201 {
		t.Errorf("interpolated p50 = %v, want inside (200, 201)", got)
	}
}

// The ladder's own subtraction, with a wire rung that is not stacked on
// the map: self times of the chain still sum to the top rung net of the
// load generator.
func TestLadderFinish(t *testing.T) {
	tr := &tracer{rungs: []rung{
		{Layer: "stm", NsOp: 60}, {Layer: "thashmap", NsOp: 150}, {Layer: "tskiplist", NsOp: 900},
		{Layer: "core", NsOp: 250}, {Layer: "shard", NsOp: 270}, {Layer: "wire.v1", NsOp: 210},
		{Layer: "server.closed", NsOp: 20_000}, {Layer: "server.pipelined", NsOp: 2_000}, {Layer: "skiphashd", NsOp: 25_000},
	}}
	const gen = 10
	tr.finish([]string{"stm", "thashmap", "core", "shard", "wire.v1", "server.pipelined"}, gen, gen)
	tr.finish([]string{"stm", "thashmap", "core", "shard", "wire.v1", "server.closed", "skiphashd"}, gen, gen)
	var sum float64
	for _, r := range tr.rungs {
		if r.Chain {
			sum += r.SelfNs
		}
		switch r.Layer {
		case "tskiplist":
			if r.Chain {
				t.Error("side rung tskiplist marked as part of the chain")
			}
		case "server.closed":
			if want := 20_000.0 - 270 - (210 - gen); r.SelfNs != want {
				t.Errorf("server.closed self = %v, want %v", r.SelfNs, want)
			}
		case "server.pipelined":
			if want := 2_000.0 - 270 - (210 - gen); r.SelfNs != want || r.Chain {
				t.Errorf("server.pipelined self = %v (chain %v), want side rung with %v", r.SelfNs, r.Chain, want)
			}
		}
	}
	if sum != 25_000-gen {
		t.Errorf("chain self times sum to %v, want top rung net of the generator %v", sum, 25_000-gen)
	}
}

func TestBucketQuantile(t *testing.T) {
	d := counters{
		reqBucketPrefix + "1e-06": 0, reqBucketPrefix + "1e-05": 50,
		reqBucketPrefix + "0.0001": 100, reqBucketPrefix + "+Inf": 100,
	}
	if got := bucketQuantile(d, 0.5); math.Abs(got-1e-5) > 1e-12 {
		t.Errorf("p50 = %v, want the 1e-05 bucket's upper bound", got)
	}
	if got := bucketQuantile(d, 0.75); math.Abs(got-5.5e-5) > 1e-12 {
		t.Errorf("p75 = %v, want halfway through (1e-05, 1e-04]", got)
	}
}

// lyingWorker answers from a private map but corrupts every nth answer.
type lyingWorker struct {
	m     map[int64]int64
	calls int
	every int
}

func (l *lyingWorker) lie() bool { l.calls++; return l.every > 0 && l.calls%l.every == 0 }
func (l *lyingWorker) get(k int64) (int64, bool, error) {
	v, ok := l.m[k]
	if l.lie() {
		return v + 1, true, nil
	}
	return v, ok, nil
}
func (l *lyingWorker) insert(k, v int64) (bool, error) {
	_, had := l.m[k]
	if !had {
		l.m[k] = v
	}
	return !had != l.lie(), nil
}
func (l *lyingWorker) remove(k int64) (bool, error) {
	_, had := l.m[k]
	delete(l.m, k)
	return had != l.lie(), nil
}
func (l *lyingWorker) scan(lo, hi int64, out []kv) ([]kv, error) {
	for k := lo; k <= hi; k++ {
		if v, ok := l.m[k]; ok {
			out = append(out, kv{Key: k, Val: v})
		}
	}
	if l.lie() && len(out) > 0 {
		out = out[1:]
	}
	return out, nil
}
func (l *lyingWorker) close() {}

func TestShadowCheckCatchesWrongAnswers(t *testing.T) {
	for _, ranges := range []bool{false, true} {
		w := &workload{name: "fake", universe: 1 << 10, readPct: 50, insertPct: 25, ranges: ranges}
		for _, every := range []int{0, 50} {
			liar := &lyingWorker{m: map[int64]int64{}}
			lt := &loadThread{id: 1, w: liar, stream: newStream(w, 11, 1, threads), shadow: newShadow(1 << 9)}
			if err := lt.prefill(11); err != nil {
				t.Fatal(err)
			}
			liar.every = every
			for i := uint64(0); i < 20_000; i++ {
				o := lt.stream.at(i)
				lt.check(o, lt.exec(o))
			}
			if lt.attempted != 20_000 {
				t.Errorf("attempted = %d", lt.attempted)
			}
			if honest := every == 0; honest != (lt.failed == 0) {
				t.Errorf("ranges=%v lying every %d: %d failures (first: %v)", ranges, every, lt.failed, lt.firstErr)
			}
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json is the contract the driver reads; the code is what
// runs. They must name the same workloads, metrics, units and bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if cfg := defaultCfg(bj.RunSeconds); cfg.windows < 6 || cfg.window != 2*time.Second {
		t.Errorf("run_seconds %d gives %d windows of %v; want at least 6 of 2s", bj.RunSeconds, cfg.windows, cfg.window)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		got := bj.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, got, m)
		}
		// The issue's bound is a tenth; only set-up time, a wall time
		// the contract tells to bound widest, may take the contract's cap.
		limit := 0.10
		if m.name == mSetup {
			limit = 0.25
		}
		if got.Bound <= 0 || got.Bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", m.name, got.Bound, limit)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := bj.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, got, m)
		}
	}
}

// TestSmokeWorkloads runs every workload end to end — set-up, warm-up,
// two 200 ms windows, final verification, and for the served ones a
// real skiphashd subprocess — and checks the result's shape. It is
// short enough to stay in -short runs.
func TestSmokeWorkloads(t *testing.T) {
	if runtime.GOMAXPROCS(0) < threads {
		t.Skipf("GOMAXPROCS %d < %d load threads", runtime.GOMAXPROCS(0), threads)
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.needDaemon(); err != nil {
		t.Fatal(err)
	}
	cfg := runCfg{setupReps: 1, warmup: 100 * time.Millisecond, windows: 2, window: 200 * time.Millisecond}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := measure(w, e, 42, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%d of %d operations failed: %v", out.failed, out.attempted, out.firstErr)
			}
			for _, m := range append(append([]metricDef(nil), endToEndMetrics...), timedMetrics...) {
				s, ok := out.series[m.name]
				if !ok || s.median <= 0 || math.IsNaN(s.median) || math.IsInf(s.median, 0) {
					t.Errorf("%s = %+v (present %v), want a finite positive number", m.name, s, ok)
				}
			}
			if s := out.series[mOps]; s.n != cfg.windows {
				t.Errorf("%s summarises %d windows, want %d", mOps, s.n, cfg.windows)
			}
			// The daemon exposes no transaction counters for a namespace,
			// so the v2 workload must leave them unset, not zero.
			if got, ok := out.layer["stm.commits_per_op"]; ok == w.v2 || (ok && got <= 0) {
				t.Errorf("stm.commits_per_op = %v (set %v) on %s", got, ok, w.name)
			}
			if got := out.layer["persist.wal_bytes_per_update"]; (w.reopen != nil) != (got > 0) {
				t.Errorf("persist.wal_bytes_per_update = %v on %s", got, w.name)
			}
			if got := out.layer["server.reqs_per_run"]; w.served != (got > 0) {
				t.Errorf("server.reqs_per_run = %v on %s", got, w.name)
			}
		})
	}
}
