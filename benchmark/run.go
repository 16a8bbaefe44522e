package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// threads is the fixed number of load threads (embedded workloads) or
// connections (served workloads). Every caller is closed-loop: it
// waits for its reply, or for its whole pipelined window, before it
// issues more.
const threads = 2

// runCfg is the shape of one measured run. The command line derives it
// from --seconds; tests shrink it.
type runCfg struct {
	setupReps int           // set-up repetitions; setup_s is their median
	warmup    time.Duration // one discarded window before the measured ones
	windows   int
	window    time.Duration
}

// defaultCfg measures for seconds in 2 s windows, after 3 set-ups and
// one discarded warm-up window.
func defaultCfg(seconds int) runCfg {
	return runCfg{setupReps: 3, warmup: 2 * time.Second, window: 2 * time.Second, windows: seconds / 2}
}

// shadow is one thread's exact model of the keys it owns: slot i holds
// the value of key i*threads+thread, or absent.
type shadow []int64

const absent = -1

func newShadow(slots int) shadow {
	s := make(shadow, slots)
	for i := range s {
		s[i] = absent
	}
	return s
}

// loadThread is one load thread's private state.
type loadThread struct {
	id     int
	w      worker
	stream *stream
	shadow shadow

	attempted uint64
	failed    uint64
	ranges    uint64 // range queries issued, and the pairs they returned
	pairs     uint64
	firstErr  error
	rangeBuf  []kv

	// hists[w][0|1] are window w's read and update latencies; index 0
	// is the warm-up window.
	hists [][2]*hist

	_    [64]byte
	done atomic.Uint64 // ops completed, published for the window edges
	_    [64]byte
}

func (lt *loadThread) fail(o op, format string, args ...any) {
	lt.failed++
	if lt.firstErr == nil {
		lt.firstErr = fmt.Errorf("thread %d, %v key %d: %s", lt.id, o.kind, o.key, fmt.Sprintf(format, args...))
	}
}

func (k opKind) String() string {
	return [...]string{"get", "insert", "remove", "range"}[k]
}

// exec issues o and returns its result; range results land in rangeBuf.
func (lt *loadThread) exec(o op) (r opResult) {
	switch o.kind {
	case opGet:
		r.val, r.ok, r.err = lt.w.get(o.key)
	case opInsert:
		r.ok, r.err = lt.w.insert(o.key, o.val)
	case opRemove:
		r.ok, r.err = lt.w.remove(o.key)
	case opRange:
		lt.rangeBuf, r.err = lt.w.scan(o.key, o.key+rangeSpan, lt.rangeBuf[:0])
	}
	return r
}

// check compares o's result with the shadow model and applies o to it.
// Every answer about a key the thread owns is fully determined, since
// no other thread touches that key.
func (lt *loadThread) check(o op, r opResult) {
	lt.attempted++
	if r.err != nil {
		lt.fail(o, "error: %v", r.err)
		return
	}
	if o.kind == opRange {
		lt.checkRange(o)
		return
	}
	slot := o.key / threads
	have := lt.shadow[slot]
	switch o.kind {
	case opGet:
		if r.ok != (have != absent) || (r.ok && r.val != have) {
			lt.fail(o, "got (%d, %v), model has %d", r.val, r.ok, have)
		}
	case opInsert:
		if r.ok != (have == absent) {
			lt.fail(o, "inserted=%v, model has %d", r.ok, have)
		}
		if r.ok {
			lt.shadow[slot] = o.val
		}
	case opRemove:
		if r.ok != (have != absent) {
			lt.fail(o, "removed=%v, model has %d", r.ok, have)
		}
		if r.ok {
			lt.shadow[slot] = absent
		}
	}
}

// checkRange verifies a range result: strictly ascending, inside the
// bounds, and — for the keys this thread owns — exactly the model's
// pairs. The other thread's keys change concurrently and are only
// checked for order and bounds.
func (lt *loadThread) checkRange(o op) {
	lo, hi := o.key, o.key+rangeSpan
	lt.ranges++
	lt.pairs += uint64(len(lt.rangeBuf))
	next := lo + (int64(lt.id)-lo%threads+threads)%threads // first owned key >= lo
	prev := lo - 1
	for _, p := range lt.rangeBuf {
		if p.Key <= prev || p.Key > hi {
			lt.fail(o, "pair %d out of order or bounds [%d, %d]", p.Key, lo, hi)
			return
		}
		prev = p.Key
		if p.Key%threads != int64(lt.id) {
			continue
		}
		for ; next < p.Key; next += threads {
			if next/threads < int64(len(lt.shadow)) && lt.shadow[next/threads] != absent {
				lt.fail(o, "range missed key %d", next)
				return
			}
		}
		if p.Key/threads >= int64(len(lt.shadow)) || lt.shadow[p.Key/threads] != p.Val {
			lt.fail(o, "range returned %d=%d, model disagrees", p.Key, p.Val)
			return
		}
		next = p.Key + threads
	}
	for ; next <= hi && next/threads < int64(len(lt.shadow)); next += threads {
		if lt.shadow[next/threads] != absent {
			lt.fail(o, "range missed key %d", next)
			return
		}
	}
}

// prefill inserts the thread's share of the seeded initial half of the
// universe. The slots are visited in a scattered order (a fixed
// multiplier coprime with the slot count), so the two threads do not
// walk the ordered index side by side.
func (lt *loadThread) prefill(seed uint64) error {
	n := uint64(len(lt.shadow))
	b, bursts := lt.w.(burster) // a connection loads in pipelined chunks
	const chunk = 64
	var (
		ops [chunk]op
		res [chunk]opResult
		lat [chunk]int64
		m   int
	)
	flush := func() error {
		if bursts && m > 0 {
			if err := b.burst(ops[:m], res[:m], lat[:m]); err != nil {
				return err
			}
		}
		for i := 0; i < m; i++ {
			if !bursts {
				res[i].ok, res[i].err = lt.w.insert(ops[i].key, ops[i].val)
			}
			if res[i].err != nil || !res[i].ok {
				return fmt.Errorf("prefill insert of key %d: ok=%v err=%v", ops[i].key, res[i].ok, res[i].err)
			}
		}
		m = 0
		return nil
	}
	for i := uint64(0); i < n; i++ {
		slot := (i * 2654435761) % n
		k := int64(slot)*threads + int64(lt.id)
		v, present := prefilled(seed, k)
		if !present {
			continue
		}
		lt.shadow[slot] = v
		ops[m] = op{kind: opInsert, key: k, val: v}
		if m++; m == chunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// run issues the stream from op 0 until stop is set, timing every
// sampleEvery-th op into the current window's histograms.
func (lt *loadThread) run(window int, sampleEvery uint64, win *atomic.Int32, stop *atomic.Bool) {
	if b, ok := lt.w.(burster); ok && window > 1 {
		lt.runBursts(b, window, win, stop)
		return
	}
	mask := sampleEvery - 1
	for i := uint64(0); ; i++ {
		o := lt.stream.at(i)
		if i&mask != 0 {
			lt.check(o, lt.exec(o))
			continue
		}
		lt.done.Store(i)
		if stop.Load() {
			return
		}
		h := &lt.hists[win.Load()]
		t0 := time.Now()
		r := lt.exec(o)
		d := time.Since(t0)
		record(h, o, int64(d))
		lt.check(o, r)
	}
}

// record files o's latency under reads or updates.
func record(h *[2]*hist, o op, ns int64) {
	if o.kind.isRead() {
		h[0].record(ns)
	} else {
		h[1].record(ns)
	}
}

func (lt *loadThread) runBursts(b burster, window int, win *atomic.Int32, stop *atomic.Bool) {
	ops := make([]op, window)
	res := make([]opResult, window)
	lat := make([]int64, window)
	for i := uint64(0); !stop.Load(); i += uint64(window) {
		lt.done.Store(i)
		h := &lt.hists[win.Load()]
		for j := range ops {
			ops[j] = lt.stream.at(i + uint64(j))
		}
		if err := b.burst(ops, res, lat); err != nil {
			// The connection is gone: everything in flight failed.
			for j := range ops {
				lt.check(ops[j], opResult{err: err})
			}
			return
		}
		for j, o := range ops {
			record(h, o, lat[j])
			lt.check(o, res[j])
		}
	}
}

// instance is a set-up product: a target, its load threads with
// prefilled shadows, ready for the first measurable op.
type instance struct {
	tgt     target
	threads []*loadThread
	setupS  float64
	// recoverS is the part of set-up spent in close + reopen (durable
	// workloads only).
	recoverS float64
}

// setUp builds an instance from nothing and times it: construct or
// open (plus daemon start and dial), prefill half the universe, and for
// a durable workload close and recover the directory.
func setUp(w *workload, e *env, seed uint64, rep int) (*instance, error) {
	t0 := time.Now()
	tgt, err := w.open(e, rep)
	if err != nil {
		return nil, err
	}
	in := &instance{tgt: tgt, threads: make([]*loadThread, threads)}
	for i := range in.threads {
		in.threads[i] = &loadThread{
			id:     i,
			stream: newStream(w, seed, i, threads),
			shadow: newShadow(int(w.universe / threads)),
		}
	}
	in.attach()
	var wg sync.WaitGroup
	errs := make([]error, threads)
	for i, lt := range in.threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = lt.prefill(seed)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		in.close()
		return nil, err
	}
	if w.reopen != nil {
		r0 := time.Now()
		if err := in.reopen(w, e, rep); err != nil {
			return nil, err
		}
		in.recoverS = time.Since(r0).Seconds()
	}
	in.setupS = time.Since(t0).Seconds()
	return in, nil
}

// attach gives every load thread a worker on the current target. The
// shadows stay: a reopened target must still match the model.
func (in *instance) attach() {
	for i, lt := range in.threads {
		lt.w = in.tgt.worker(i)
	}
}

// reopen closes the target and recovers it from its directory.
func (in *instance) reopen(w *workload, e *env, rep int) error {
	for _, lt := range in.threads {
		lt.w.close()
	}
	if err := in.tgt.close(); err != nil {
		return fmt.Errorf("close before reopen: %w", err)
	}
	tgt, err := w.reopen(e, rep)
	if err != nil {
		return err
	}
	in.tgt = tgt
	in.attach()
	return nil
}

func (in *instance) close() error {
	for _, lt := range in.threads {
		if lt.w != nil {
			lt.w.close()
		}
	}
	return in.tgt.close()
}

// verifyAll scans the whole universe and compares it with the merged
// shadows, returning how many keys were compared and how many differ.
func (in *instance) verifyAll(universe int64) (compared, mismatched uint64, first error) {
	all, err := in.threads[0].w.scan(0, universe-1, nil)
	if err != nil {
		return uint64(universe), uint64(universe), fmt.Errorf("final scan: %w", err)
	}
	note := func(format string, args ...any) {
		mismatched++
		if first == nil {
			first = fmt.Errorf("final scan: "+format, args...)
		}
	}
	at := 0
	for k := int64(0); k < universe; k++ {
		want := in.threads[k%threads].shadow[k/threads]
		for at < len(all) && all[at].Key < k {
			note("unexpected or unordered key %d", all[at].Key)
			at++
		}
		switch {
		case at < len(all) && all[at].Key == k:
			if all[at].Val != want {
				note("key %d holds %d, model has %d", k, all[at].Val, want)
			}
			at++
		case want != absent:
			note("key %d missing, model has %d", k, want)
		}
	}
	for ; at < len(all); at++ {
		note("key %d beyond the universe", all[at].Key)
	}
	return uint64(universe), mismatched, first
}

// edge is what the coordinator records at a window boundary.
type edge struct {
	at        time.Time
	ops       uint64
	selfCPU   float64 // seconds, load generator (this process)
	daemonCPU float64 // seconds, skiphashd subprocess
	allocs    float64 // heap objects allocated so far by this process
	allocated float64 // and their bytes
}

// heapAllocated reads the process's cumulative heap allocation without
// stopping the world.
func heapAllocated() (objects, bytes float64) {
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(samples)
	return float64(samples[0].Value.Uint64()), float64(samples[1].Value.Uint64())
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func (in *instance) edge() (edge, error) {
	e := edge{at: time.Now(), selfCPU: selfCPUSeconds()}
	e.allocs, e.allocated = heapAllocated()
	for _, lt := range in.threads {
		e.ops += lt.done.Load()
	}
	if st, ok := in.tgt.(*servedTarget); ok && st.d != nil {
		cpu, err := st.d.cpuSeconds()
		if err != nil {
			return e, err
		}
		e.daemonCPU = cpu
	}
	return e, nil
}

// series is one metric's per-window values.
type series struct {
	median, min, max float64
	n                int
	values           []float64
}

func summarize(xs []float64) series {
	lo, hi := minMax(xs)
	return series{median: median(xs), min: lo, max: hi, n: len(xs), values: xs}
}

// outcome is everything one workload run measured.
type outcome struct {
	recoverS float64 // close + reopen share of the measured instance's set-up
	// series holds every end-to-end and timed metric by name.
	series    map[string]series
	layer     map[string]float64 // counters and tails of the timed phase
	attempted uint64
	failed    uint64
	firstErr  error
}

// End-to-end metric names, shared by every workload.
const (
	mSetup      = "setup_s"
	mAllocs     = "allocs_per_op"
	mAllocBytes = "alloc_bytes_per_op"
)

// Timed metric names: the issue's throughput, CPU and latency figures.
// Every run measures and prints them; they are listed with the per-layer
// metrics, which carry no bound, because no wall-clock figure repeats
// within a tenth on the shared host (README.md, "What is bounded").
const (
	mOps       = "timed.ops_per_s"
	mCPU       = "timed.cpu_us_per_op"
	mReadP50   = "timed.read_p50_us"
	mUpdateP50 = "timed.update_p50_us"
)

// measure runs one workload: set-up repetitions, warm-up, the measured
// windows, then the final verification.
func measure(w *workload, e *env, seed uint64, cfg runCfg, withCounters bool) (*outcome, error) {
	out := &outcome{series: map[string]series{}, layer: map[string]float64{}}

	var (
		in     *instance
		setups []float64
	)
	for rep := 0; rep < cfg.setupReps; rep++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("set-up repetition %d: close: %w", rep-1, err)
			}
			in = nil
			runtime.GC()
		}
		var err error
		if in, err = setUp(w, e, seed, rep); err != nil {
			return nil, fmt.Errorf("set-up repetition %d: %w", rep, err)
		}
		setups = append(setups, in.setupS)
	}
	defer func() { in.close() }()
	out.recoverS = in.recoverS
	out.series[mSetup] = summarize(setups)

	for _, lt := range in.threads {
		lt.hists = make([][2]*hist, cfg.windows+1)
		for i := range lt.hists {
			lt.hists[i] = [2]*hist{newHist(), newHist()}
		}
	}
	runtime.GC()

	var (
		win  atomic.Int32 // 0 = warm-up, then 1..windows
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for _, lt := range in.threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lt.run(w.window, w.sampleEvery, &win, &stop)
		}()
	}
	// The windows follow one another without a pause and the collector
	// runs as it would for any embedder, so its cycles and assists are
	// inside every figure. edges[i] and edges[i+1] bound window i;
	// window 0 is the warm-up.
	edges := make([]edge, 0, cfg.windows+2)
	var before, after counters
	var edgeErr error
	mark := func() {
		e, err := in.edge()
		if edgeErr == nil {
			edgeErr = err
		}
		edges = append(edges, e)
	}
	mark()
	for i := 0; i <= cfg.windows && edgeErr == nil; i++ {
		length := cfg.window
		if i == 0 {
			length = cfg.warmup
		}
		if withCounters && i == 1 {
			before, edgeErr = in.tgt.counters()
		}
		win.Store(int32(i))
		time.Sleep(length)
		mark()
	}
	if withCounters && edgeErr == nil {
		after, edgeErr = in.tgt.counters()
	}
	stop.Store(true)
	wg.Wait()
	if edgeErr != nil {
		return nil, edgeErr
	}

	var rates, cpus, selfCPUs, daemonCPUs, readP50, updP50, allocs, allocBytes []float64
	reads, updates := newHist(), newHist()
	for i := 1; i <= cfg.windows; i++ {
		open, shut := edges[i], edges[i+1]
		ops := float64(shut.ops - open.ops)
		if ops == 0 {
			return nil, fmt.Errorf("%s: window %d completed no operation", w.name, i)
		}
		rates = append(rates, ops/shut.at.Sub(open.at).Seconds())
		selfCPUs = append(selfCPUs, (shut.selfCPU-open.selfCPU)*1e6/ops)
		daemonCPUs = append(daemonCPUs, (shut.daemonCPU-open.daemonCPU)*1e6/ops)
		cpus = append(cpus, selfCPUs[i-1]+daemonCPUs[i-1])
		allocs = append(allocs, (shut.allocs-open.allocs)/ops)
		allocBytes = append(allocBytes, (shut.allocated-open.allocated)/ops)
		r, u := newHist(), newHist()
		for _, lt := range in.threads {
			r.merge(lt.hists[i][0])
			u.merge(lt.hists[i][1])
		}
		readP50 = append(readP50, r.quantile(0.5)/1e3)
		updP50 = append(updP50, u.quantile(0.5)/1e3)
		reads.merge(r)
		updates.merge(u)
	}
	out.series[mAllocs] = summarize(allocs)
	out.series[mAllocBytes] = summarize(allocBytes)
	out.series[mOps] = summarize(rates)
	out.series[mCPU] = summarize(cpus)
	out.series[mReadP50] = summarize(readP50)
	out.series[mUpdateP50] = summarize(updP50)

	// Tails and the CPU split are per-layer figures.
	out.layer["client.read_p99_us"] = reads.quantile(0.99) / 1e3
	out.layer["client.update_p99_us"] = updates.quantile(0.99) / 1e3
	if w.served {
		out.layer["client.cpu_us_per_op"] = median(selfCPUs)
		out.layer["skiphashd.cpu_us_per_op"] = median(daemonCPUs)
	}
	if withCounters {
		first, last := edges[1], edges[len(edges)-1]
		layerCounters(out.layer, after.sub(before), float64(last.ops-first.ops),
			last.at.Sub(first.at).Seconds(), in, w)
	}

	for _, lt := range in.threads {
		out.attempted += lt.attempted
		out.failed += lt.failed
		if out.firstErr == nil {
			out.firstErr = lt.firstErr
		}
	}
	verify := func() {
		n, bad, err := in.verifyAll(w.universe)
		out.attempted += n
		out.failed += bad
		if out.firstErr == nil {
			out.firstErr = err
		}
	}
	verify()
	if st, ok := in.tgt.(*servedTarget); ok {
		if rss, err := st.d.rssBytes(); err == nil {
			out.layer["skiphashd.rss_mb"] = rss / (1 << 20)
		}
	}
	if w.reopen != nil {
		// A durable map must also hand the same contents back after a
		// clean close and a recovery.
		if err := in.reopen(w, e, cfg.setupReps-1); err != nil {
			return nil, fmt.Errorf("reopen after the run: %w", err)
		}
		verify()
		if n, err := dirBytes(in.tgt.(*mapTarget).dir); err == nil {
			out.layer["persist.dir_bytes_per_key"] = float64(n) / float64(in.liveKeys())
		}
	}
	return out, nil
}

func (in *instance) liveKeys() int {
	n := 0
	for _, lt := range in.threads {
		for _, v := range lt.shadow {
			if v != absent {
				n++
			}
		}
	}
	return max(n, 1)
}

// layerCounters derives the per-layer ratios from the counter deltas
// of the measured windows. A layer the workload does not cross, or one
// whose counters the target does not expose (d lacks the key), sets
// nothing.
func layerCounters(dst map[string]float64, d counters, ops, seconds float64, in *instance, w *workload) {
	ratio := func(name string, num, den float64) {
		if den > 0 {
			dst[name] = num / den
		}
	}
	if _, ok := d[cCommits]; ok {
		ratio("stm.commits_per_op", d[cCommits], ops)
		ratio("stm.abort_ratio", d[cAborts], d[cAborts]+d[cCommits])
		ratio("stm.fastread_hit_ratio", d[cFastHits], d[cFastHits]+d[cFastFallbacks])
		ratio("stm.backoff_ns_per_op", d[cBackoffNs], ops)
		ratio("core.drained_nodes_per_update", d[cDrained], ops*float64(100-w.readPct)/100)
	}
	if w.sharded {
		dst["shard.count"] = d[cShards]
	}
	if w.ranges {
		ratio("core.range_fast_ratio", d[cRangeFast], d[cRangeFast]+d[cRangeSlow])
		ratio("core.range_fast_abort_ratio", d[cRangeAborts], d[cRangeAttempts])
		var pairs, queries float64
		for _, lt := range in.threads {
			pairs += float64(lt.pairs)
			queries += float64(lt.ranges)
		}
		ratio("core.pairs_per_range", pairs, queries)
	}
	if w.reopen != nil {
		ratio("persist.wal_bytes_per_update", d[cWalBytes], d[cWalRecords])
		ratio("persist.records_per_flush", d[cWalRecords], d[cWalFlushes])
		ratio("persist.syncs_per_s", d[cWalSyncs], seconds)
	}
	if w.served {
		ratio("server.reqs_per_run", d[cSrvRunRequests], d[cSrvRuns])
		dst["server.busy_refusals"] = d[cSrvBusy]
		dst["server.req_p50_us"] = bucketQuantile(d, 0.5) * 1e6
	}
}
