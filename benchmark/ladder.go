package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stm"
	"repro/internal/thashmap"
	"repro/internal/tskiplist"
	"repro/internal/wire"
	"repro/skiphash"
)

// The traced run replays a prefix of thread 0's seeded op stream, on
// one goroutine, through each layer the workload crosses — from a bare
// STM transaction up to the skiphashd subprocess — calling only the
// layer's public functions. Every 256-op chunk of calls is wrapped in a
// span. A rung's cost includes every layer beneath it, so a layer's
// self time is its rung minus the rung below; nothing inside the
// program is instrumented.

// layerMetrics are reported by every workload with --trace 1, prefix =
// module. A layer the workload does not cross reports notCrossed.
var layerMetrics = append(append([]metricDef(nil), timedMetrics...), []metricDef{
	{name: "loadgen.ns_per_op", unit: "ns", better: "lower"},
	{name: "stm.ns_per_txn_ro", unit: "ns", better: "lower"},
	{name: "stm.ns_per_txn_rw", unit: "ns", better: "lower"},
	{name: "stm.commits_per_op", unit: "count", better: "lower"},
	{name: "stm.abort_ratio", unit: "ratio", better: "lower"},
	{name: "stm.fastread_hit_ratio", unit: "ratio", better: "higher"},
	{name: "stm.backoff_ns_per_op", unit: "ns", better: "lower"},
	{name: "thashmap.ns_per_op", unit: "ns", better: "lower"},
	{name: "tskiplist.ns_per_op", unit: "ns", better: "lower"},
	{name: "core.ns_per_op", unit: "ns", better: "lower"},
	{name: "core.self_ns_per_op", unit: "ns", better: "lower"},
	{name: "core.allocs_per_op", unit: "count", better: "lower"},
	{name: "core.heap_bytes_per_key", unit: "bytes", better: "lower"},
	{name: "core.range_ns_per_pair", unit: "ns", better: "lower"},
	{name: "core.range_fast_ratio", unit: "ratio", better: "higher"},
	{name: "core.range_fast_abort_ratio", unit: "ratio", better: "lower"},
	{name: "core.pairs_per_range", unit: "count", better: "higher"},
	{name: "core.drained_nodes_per_update", unit: "count", better: "lower"},
	{name: "shard.self_ns_per_op", unit: "ns", better: "lower"},
	{name: "shard.count", unit: "count", better: "higher"},
	{name: "persist.self_ns_per_update", unit: "ns", better: "lower"},
	{name: "persist.wal_bytes_per_update", unit: "bytes", better: "lower"},
	{name: "persist.records_per_flush", unit: "count", better: "higher"},
	{name: "persist.syncs_per_s", unit: "1/s", better: "lower"},
	{name: "persist.recover_s", unit: "s", better: "lower"},
	{name: "persist.dir_bytes_per_key", unit: "bytes", better: "lower"},
	{name: "wire.ns_per_req", unit: "ns", better: "lower"},
	{name: "wire.ns_per_req_v2", unit: "ns", better: "lower"},
	{name: "wire.bytes_per_req", unit: "bytes", better: "lower"},
	{name: "wire.bytes_per_req_v2", unit: "bytes", better: "lower"},
	{name: "server.self_ns_per_req_closed", unit: "ns", better: "lower"},
	{name: "server.self_ns_per_req_pipelined", unit: "ns", better: "lower"},
	{name: "server.reqs_per_run", unit: "count", better: "higher"},
	{name: "server.req_p50_us", unit: "us", better: "lower"},
	{name: "server.busy_refusals", unit: "count", better: "lower"},
	{name: "client.allocs_per_req", unit: "count", better: "lower"},
	{name: "client.read_p99_us", unit: "us", better: "lower"},
	{name: "client.update_p99_us", unit: "us", better: "lower"},
	{name: "client.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "skiphashd.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "skiphashd.rss_mb", unit: "MiB", better: "lower"},
	{name: "skiphashd.self_ns_per_req", unit: "ns", better: "lower"},
	{name: "trace.top_rung_ns_per_op", unit: "ns", better: "lower"},
	{name: "trace.timed_vs_top_rung", unit: "ratio", better: "higher"},
}...)

// Replay lengths. The issue's 2^20 ops hold for in-process rungs; rungs
// that cost microseconds per op replay a shorter prefix of the same
// stream so that a traced run fits the driver's time budget.
const (
	traceOpsInProc    = 1 << 20
	traceOpsRange     = 1 << 18
	traceOpsClosed    = 1 << 15
	traceOpsPipelined = 1 << 18
	traceChunk        = 256
)

// span is one traced interval. Parent indexes the spans array (-1 for
// the root); the chunks of one rung share the rung's span as parent.
type span struct {
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Ops      uint64 `json:"ops"`
	Parent   int    `json:"parent"`
}

// rung is one step of the ladder.
type rung struct {
	Layer  string  `json:"layer"`
	Ops    uint64  `json:"ops"`
	NsOp   float64 `json:"ns_per_op"`      // measured, load generator included
	SelfNs float64 `json:"self_ns_per_op"` // this rung minus the rungs it stands on
	Chain  bool    `json:"in_chain"`       // part of the subtraction chain (else a side rung)
}

type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	rungs    []rung
}

func (t *tracer) begin(layer string, parent int) int {
	t.spans = append(t.spans, span{Layer: layer, Workload: t.workload,
		StartNs: int64(time.Since(t.epoch)), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int, ops uint64) {
	t.spans[i].EndNs = int64(time.Since(t.epoch))
	t.spans[i].Ops = ops
}

// replay pushes the first n ops of s through do in spans of traceChunk
// ops and returns the mean cost per op over the chunk spans. stride is
// how many ops one do call consumes (a pipelined window), 1 otherwise.
func (t *tracer) replay(layer string, s *stream, n uint64, stride int, do func(ops []op)) float64 {
	parent := t.begin(layer, 0)
	buf := make([]op, stride)
	var busy int64
	for i := uint64(0); i < n; {
		c := t.begin(layer, parent)
		start, end := i, min(i+traceChunk, n)
		for ; i < end; i += uint64(stride) {
			for j := range buf {
				buf[j] = s.at(i + uint64(j))
			}
			do(buf)
		}
		t.end(c, end-start)
		busy += t.spans[c].EndNs - t.spans[c].StartNs
	}
	t.end(parent, n)
	ns := float64(busy) / float64(n)
	t.rungs = append(t.rungs, rung{Layer: layer, Ops: n, NsOp: ns})
	return ns
}

var sink int64

// eachPrefilled calls fn for every key of the seeded initial half.
func eachPrefilled(w *workload, seed uint64, fn func(k, v int64)) {
	for i := int64(0); i < w.universe; i++ {
		k := (i * 2654435761) % w.universe
		if v, ok := prefilled(seed, k); ok {
			fn(k, v)
		}
	}
}

// keying is how a rung's map sees the stream's int64 keys and values:
// as they are, or, under a v2 workload, as the 16-byte strings the
// daemon's namespace map stores.
type keying[K comparable] struct {
	conv func(int64) K
	less func(a, b K) bool
	hash func(K) uint64
	use  func(K) // keeps a looked-up value alive
}

var int64Keys = keying[int64]{
	conv: func(k int64) int64 { return k },
	less: skiphash.Int64Less,
	hash: skiphash.Hash64,
	use:  func(v int64) { sink += v },
}

var stringKeys = keying[string]{
	conv: func(k int64) string { return string(appendBKey(make([]byte, 0, bkeyLen), k)) },
	less: skiphash.StringLess,
	hash: skiphash.HashString,
	use:  func(v string) { sink += int64(len(v)) },
}

// traceRun is the --trace 1 run: the ladder, then a timed phase that
// reads the layers' counters at its window edges.
func traceRun(e *env, w *workload, seed uint64, cfg runCfg, info runInfo) (*outcome, map[string]float64, error) {
	t := &tracer{workload: w.name, epoch: time.Now()}
	t.begin(w.name, -1)
	layer := map[string]float64{}
	s := newStream(w, seed, 0, threads)
	n := uint64(traceOpsInProc)
	if w.ranges {
		n = traceOpsRange
	}
	updateShare := float64(100-w.readPct) / 100

	// gen is the generator with the rung maps' key encoding, plain the
	// generator alone, which the transaction and codec rungs stand on.
	var gen, plain, top float64
	if w.v2 {
		gen, plain, top = mapRungs(t, stringKeys, w, seed, s, n, layer)
	} else {
		gen, plain, top = mapRungs(t, int64Keys, w, seed, s, n, layer)
	}
	// The skip list is a side rung: the skip hash reaches a key through
	// the hash index, so that is what core's self time is taken over.
	chain := []string{"stm", "thashmap", "core"}
	var side []string
	if w.sharded {
		chain = append(chain, "shard")
	}
	if w.reopen != nil {
		durNs, err := t.durableRung(e, w, seed, s, n)
		if err != nil {
			return nil, nil, err
		}
		chain = append(chain, "durable")
		top = durNs
	}
	if w.served {
		v1, v1Bytes := t.wireRung(s, n, false)
		v2, v2Bytes := t.wireRung(s, n, true)
		layer["wire.ns_per_req"], layer["wire.bytes_per_req"] = v1-plain, v1Bytes
		layer["wire.ns_per_req_v2"], layer["wire.bytes_per_req_v2"] = v2-plain, v2Bytes
		wireName := "wire.v1"
		if w.v2 {
			wireName = "wire.v2"
		}
		if err := t.serverRungs(e, w, seed, s); err != nil {
			return nil, nil, err
		}
		daemonNs, allocs, err := t.daemonRung(e, w, seed, s)
		if err != nil {
			return nil, nil, err
		}
		layer["client.allocs_per_req"] = allocs
		// Both server rungs are measured; the one in the workload's own
		// mode carries the chain up to the daemon, the other is a side
		// rung with the same subtraction.
		mine, other := "server.closed", "server.pipelined"
		if w.window > 1 {
			mine, other = other, mine
		}
		chain = append(chain, wireName, mine, "skiphashd")
		side = []string{"stm", "thashmap", "core", "shard", wireName, other}
		top = daemonNs
		t.finish(side, gen, plain)
	}
	t.finish(chain, gen, plain)
	for _, r := range t.rungs {
		switch r.Layer {
		case "core":
			layer["core.self_ns_per_op"] = r.SelfNs
		case "shard":
			layer["shard.self_ns_per_op"] = r.SelfNs
		case "durable":
			layer["persist.self_ns_per_update"] = r.SelfNs / updateShare
		case "server.closed":
			layer["server.self_ns_per_req_closed"] = r.SelfNs
		case "server.pipelined":
			layer["server.self_ns_per_req_pipelined"] = r.SelfNs
		case "skiphashd":
			layer["skiphashd.self_ns_per_req"] = r.SelfNs
		}
	}
	layer["trace.top_rung_ns_per_op"] = top
	t.end(0, 0)

	// Timed phase: one set-up, then the same windows as an untraced run,
	// with the counters read through the public Stats accessors and the
	// daemon's STATS op at the edges.
	cfg.setupReps = 1
	out, err := measure(w, e, seed, cfg, true)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range out.layer {
		layer[k] = v
	}
	for _, m := range timedMetrics {
		layer[m.name] = out.series[m.name].median
	}
	if w.reopen != nil {
		layer["persist.recover_s"] = out.recoverS
	}
	layer["trace.timed_vs_top_rung"] = out.series[mOps].median / (1e9 / top)

	if err := t.write(e, info, layer); err != nil {
		return nil, nil, err
	}
	t.print()
	return out, layer, nil
}

// finish computes self times. The chain's rungs telescope: each
// subtracts the rung before it, except that the wire codec is not
// stacked on the map (it never calls it), so the server rung subtracts
// both the wire rung and the map rung under it. The load generator's
// own cost (gen under the map rungs, plain under the codec) is taken
// out of the bottom rung only, since differences cancel it. Self times
// of the chain sum to the top rung net of the generator.
func (t *tracer) finish(chain []string, gen, plain float64) {
	byName := map[string]*rung{}
	for i := range t.rungs {
		t.rungs[i].Chain = false
		byName[t.rungs[i].Layer] = &t.rungs[i]
	}
	var below, belowWire float64
	for i, name := range chain {
		r := byName[name]
		r.Chain = true
		switch {
		case i == 0:
			r.SelfNs = r.NsOp - gen
			below = r.NsOp
		case strings.HasPrefix(name, "wire."):
			r.SelfNs = r.NsOp - plain
			belowWire = r.SelfNs
		default:
			r.SelfNs = r.NsOp - below - belowWire
			below, belowWire = r.NsOp, 0
		}
	}
}

func (t *tracer) print() {
	fmt.Printf("%-18s %10s %14s %14s\n", "rung", "ops", "ns/op", "self ns/op")
	var sum float64
	for _, r := range t.rungs {
		mark := " "
		if r.Chain {
			mark = "*"
			sum += r.SelfNs
		}
		fmt.Printf("%s %-16s %10d %14.1f %14.1f\n", mark, r.Layer, r.Ops, r.NsOp, r.SelfNs)
	}
	fmt.Printf("  self times of the * chain sum to %.1f ns/op\n", sum)
}

// write stores the spans and the ladder under benchmark/out.
func (t *tracer) write(e *env, info runInfo, layer map[string]float64) error {
	path := filepath.Join(e.outDir, "trace-"+t.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Info    runInfo            `json:"info"`
		Rungs   []rung             `json:"rungs"`
		Metrics map[string]float64 `json:"metrics"`
		Spans   []span             `json:"spans"`
	}{info, t.rungs, layer, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("wrote %d spans to %s\n", len(t.spans), path)
	return nil
}

// mapRungs replays the stream through the in-memory rungs — generator,
// bare transactions, hash index, skip list, core.Map and, for a sharded
// workload, shard.Sharded — with the map keyed as kg says. It returns
// the generator's cost with and without the key encoding, and the top
// in-memory rung.
func mapRungs[K comparable](t *tracer, kg keying[K], w *workload, seed uint64, s *stream, n uint64, layer map[string]float64) (gen, plain, top float64) {
	gen = t.replay("loadgen", s, n, 1, func(ops []op) { kg.use(kg.conv(ops[0].key)) })
	layer["loadgen.ns_per_op"] = gen
	plain = gen
	if w.v2 {
		plain = t.replay("loadgen.plain", s, n, 1, func(ops []op) { sink += ops[0].key })
	}

	// The transaction rungs index an array and encode no key; the mixed
	// rung is lifted onto the encoding generator so the chain telescopes.
	ro, rw := t.stmRungs(w, s, n)
	layer["stm.ns_per_txn_ro"], layer["stm.ns_per_txn_rw"] = ro-plain, rw-plain
	updateShare := float64(100-w.readPct) / 100
	t.rungs = append(t.rungs, rung{Layer: "stm", Ops: n, NsOp: (1-updateShare)*ro + updateShare*rw + gen - plain})

	hash := thashmapRung(t, kg, w, seed, s, n)
	skip := tskiplistRung(t, kg, w, seed, s, n)
	layer["thashmap.ns_per_op"], layer["tskiplist.ns_per_op"] = hash-gen, skip-gen

	top = coreRung(t, kg, w, seed, s, n, layer)
	layer["core.ns_per_op"] = top - gen
	if w.sharded {
		top = shardRung(t, kg, w, seed, s, n)
	}
	return gen, plain, top
}

// stmRungs measures the bare transaction: one read-only and one
// read-write transaction per op over an array of orec-guarded words.
func (t *tracer) stmRungs(w *workload, s *stream, n uint64) (ro, rw float64) {
	type cell struct {
		o stm.Orec
		v stm.U64
	}
	rt := stm.New()
	cells := make([]cell, w.universe)
	var k int64
	read := func(tx *stm.Tx) error { sink += int64(cells[k].v.Load(tx, &cells[k].o)); return nil }
	write := func(tx *stm.Tx) error { cells[k].v.Store(tx, &cells[k].o, uint64(k)); return nil }
	ro = t.replay("stm.ro", s, n, 1, func(ops []op) { k = ops[0].key; rt.Atomic(read) })
	rw = t.replay("stm.rw", s, n, 1, func(ops []op) { k = ops[0].key; rt.Atomic(write) })
	return ro, rw
}

// skipLevels is the skip list tower height core.Config defaults to.
const skipLevels = 20

func defaultBuckets() int {
	m := core.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, core.Config{})
	defer m.Close()
	return m.Config().Buckets
}

// thashmapRung: the transactional hash index alone. It has no ordered
// scan, so a range op probes its start key.
func thashmapRung[K comparable](t *tracer, kg keying[K], w *workload, seed uint64, s *stream, n uint64) float64 {
	m := thashmap.New[K, K](stm.New(), kg.hash, defaultBuckets())
	eachPrefilled(w, seed, func(k, v int64) { m.Insert(kg.conv(k), kg.conv(v)) })
	return t.replay("thashmap", s, n, 1, func(ops []op) {
		switch o := ops[0]; o.kind {
		case opInsert:
			m.Insert(kg.conv(o.key), kg.conv(o.val))
		case opRemove:
			m.Remove(kg.conv(o.key))
		default:
			v, _ := m.Get(kg.conv(o.key))
			kg.use(v)
		}
	})
}

// tskiplistRung: the transactional skip list alone — what point ops
// would cost without the hash index in front (the paper's O(1) claim).
func tskiplistRung[K comparable](t *tracer, kg keying[K], w *workload, seed uint64, s *stream, n uint64) float64 {
	rt := stm.New()
	m := tskiplist.New[K, K](rt, kg.less, skipLevels)
	eachPrefilled(w, seed, func(k, v int64) { m.Insert(kg.conv(k), kg.conv(v)) })
	var (
		lo, hi K
		buf    []tskiplist.Pair[K, K]
	)
	scan := func(tx *stm.Tx) error { buf = m.RangeTx(tx, lo, hi, buf[:0]); return nil }
	return t.replay("tskiplist", s, n, 1, func(ops []op) {
		switch o := ops[0]; o.kind {
		case opInsert:
			m.Insert(kg.conv(o.key), kg.conv(o.val))
		case opRemove:
			m.Remove(kg.conv(o.key))
		case opRange:
			lo, hi = kg.conv(o.key), kg.conv(o.key+rangeSpan)
			rt.Atomic(scan)
		default:
			v, _ := m.Get(kg.conv(o.key))
			kg.use(v)
		}
	})
}

// handle is the method set core.Handle and shard.Handle share.
type handle[K comparable] interface {
	Lookup(k K) (K, bool)
	Insert(k, v K) bool
	Remove(k K) bool
	Range(l, r K, out []skiphash.Pair[K, K]) []skiphash.Pair[K, K]
	Close()
}

// handleDo adapts an embedded handle to the replay callback. Range ops
// are timed one by one into rangeNs/pairs when those are non-nil.
func handleDo[K comparable](h handle[K], kg keying[K], rangeNs *int64, pairs *uint64) func(ops []op) {
	var buf []skiphash.Pair[K, K]
	return func(ops []op) {
		switch o := ops[0]; o.kind {
		case opInsert:
			h.Insert(kg.conv(o.key), kg.conv(o.val))
		case opRemove:
			h.Remove(kg.conv(o.key))
		case opRange:
			if rangeNs == nil {
				buf = h.Range(kg.conv(o.key), kg.conv(o.key+rangeSpan), buf[:0])
				return
			}
			t0 := time.Now()
			buf = h.Range(kg.conv(o.key), kg.conv(o.key+rangeSpan), buf[:0])
			*rangeNs += int64(time.Since(t0))
			*pairs += uint64(len(buf))
		default:
			v, _ := h.Lookup(kg.conv(o.key))
			kg.use(v)
		}
	}
}

// liveHeap is the heap in use after collection. Two cycles, because
// handles parked in a sync.Pool survive one.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// coreRung: the skip hash proper (hash index + skip list + range
// coordinator) through a core.Map handle. It also weighs the prefilled
// map and counts allocations.
func coreRung[K comparable](t *tracer, kg keying[K], w *workload, seed uint64, s *stream, n uint64, layer map[string]float64) float64 {
	before := liveHeap()
	m := core.New[K, K](kg.less, kg.hash, core.Config{})
	defer m.Close()
	h := m.NewHandle()
	defer h.Close()
	keys := 0
	eachPrefilled(w, seed, func(k, v int64) { h.Insert(kg.conv(k), kg.conv(v)); keys++ })
	layer["core.heap_bytes_per_key"] = float64(liveHeap()-before) / float64(keys)
	var (
		rangeNs int64
		pairs   uint64
	)
	m0 := mallocs()
	ns := t.replay("core", s, n, 1, handleDo[K](h, kg, &rangeNs, &pairs))
	layer["core.allocs_per_op"] = float64(mallocs()-m0) / float64(n)
	if pairs > 0 {
		layer["core.range_ns_per_pair"] = float64(rangeNs) / float64(pairs)
	}
	return ns
}

// shardRung: the same stream through shard.Sharded's routing.
func shardRung[K comparable](t *tracer, kg keying[K], w *workload, seed uint64, s *stream, n uint64) float64 {
	m := shard.New[K, K](kg.less, kg.hash, core.Config{})
	defer m.Close()
	h := m.NewHandle()
	defer h.Close()
	eachPrefilled(w, seed, func(k, v int64) { h.Insert(kg.conv(k), kg.conv(v)) })
	return t.replay("shard", s, n, 1, handleDo[K](h, kg, nil, nil))
}

// durableRung: the durable map with fsync=none, so the rung holds the
// engine's own work (encode, append, flush) and not the disk's; then a
// timed close + recovery of what it wrote.
func (t *tracer) durableRung(e *env, w *workload, seed uint64, s *stream, n uint64) (float64, error) {
	dir := filepath.Join(e.tmp, "ladder-durable")
	tgt, err := openMap(dir, skiphash.FsyncNone)
	if err != nil {
		return 0, err
	}
	h := tgt.m.NewHandle()
	eachPrefilled(w, seed, func(k, v int64) { h.Insert(k, v) })
	ns := t.replay("durable", s, n, 1, handleDo[int64](h, int64Keys, nil, nil))
	h.Close()
	if err := tgt.close(); err != nil {
		return 0, err
	}
	c := t.begin("durable.recover", 0)
	tgt, err = openMap(dir, skiphash.FsyncNone)
	t.end(c, 1)
	if err != nil {
		return 0, err
	}
	if err := tgt.close(); err != nil {
		return 0, err
	}
	return ns, os.RemoveAll(dir)
}

// wireRung: encode, frame-check and decode one request and its
// response per op, with no socket in between.
func (t *tracer) wireRung(s *stream, n uint64, v2 bool) (ns, bytesPerReq float64) {
	var (
		enc   []byte
		rd    bytes.Reader
		total uint64
		cw    = &connWorker{v2: v2, ns: 1}
		reqFr = wire.NewFrameReader(&rd, wire.MaxRequestPayload)
		rspFr = wire.NewFrameReader(&rd, wire.MaxResponsePayload)
	)
	name := "wire.v1"
	if v2 {
		name = "wire.v2"
	}
	ns = t.replay(name, s, n, 1, func(ops []op) {
		o := ops[0]
		if o.kind == opRange {
			o.kind = opGet
		}
		var req wire.Request
		cw.keys = cw.keys[:0]
		cw.request(&req, o)
		req.ID = 1
		enc = wire.AppendRequest(enc[:0], &req)
		total += uint64(len(enc))
		rd.Reset(enc)
		payload, err := reqFr.Next()
		if err != nil {
			panic(err)
		}
		got, err := wire.ParseRequest(payload)
		if err != nil {
			panic(err)
		}
		resp := wire.Response{ID: got.ID, Op: got.Op, Ok: true, Val: o.val}
		if v2 && o.kind == opGet {
			resp.BVal = got.BKey
		}
		enc = wire.AppendResponse(enc[:0], &resp)
		total += uint64(len(enc))
		rd.Reset(enc)
		if payload, err = rspFr.Next(); err != nil {
			panic(err)
		}
		back, err := wire.ParseResponse(payload)
		if err != nil {
			panic(err)
		}
		sink += back.Val
	})
	return ns, float64(total) / float64(n)
}

// connDo adapts a connection to the replay callback: one request at a
// time, or a pipelined window per call.
func connDo(cw *connWorker) func(ops []op) {
	var (
		res []opResult
		lat []int64
	)
	return func(ops []op) {
		if len(ops) == 1 {
			if r := cw.do(ops[0]); r.err != nil {
				panic(r.err)
			}
			return
		}
		if res == nil {
			res, lat = make([]opResult, len(ops)), make([]int64, len(ops))
		}
		if err := cw.burst(ops, res, lat); err != nil {
			panic(err)
		}
	}
}

// prefillConn loads the seeded initial half over one connection.
func prefillConn(w *workload, seed uint64, cw *connWorker) error {
	lt := &loadThread{w: cw}
	for id := 0; id < threads; id++ {
		lt.id, lt.shadow = id, newShadow(int(w.universe/threads))
		if err := lt.prefill(seed); err != nil {
			return err
		}
	}
	return nil
}

// serverRungs: internal/server in this process behind a real unix
// socket, driven by the real client: one request at a time, then 32 in
// flight. The map and daemon defaults match skiphashd's.
func (t *tracer) serverRungs(e *env, w *workload, seed uint64, s *stream) error {
	m := skiphash.NewSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Maintenance: true})
	defer m.Close()
	reg, err := server.NewRegistry(server.RegistryConfig{Map: skiphash.Config{Maintenance: true}})
	if err != nil {
		return err
	}
	defer reg.CloseAll()
	srv := server.NewWithRegistry(server.NewShardedBackend(m), reg, server.Config{})
	ln, err := net.Listen("unix", e.socketPath(100))
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	}()
	tgt, err := dialServed("unix", e.socketPath(100), w.v2, 1)
	if err != nil {
		return err
	}
	defer tgt.close()
	cw := tgt.worker(0).(*connWorker)
	if err := prefillConn(w, seed, cw); err != nil {
		return err
	}
	t.replay("server.closed", s, traceOpsClosed, 1, connDo(cw))
	t.replay("server.pipelined", s, traceOpsPipelined, 32, connDo(cw))
	return nil
}

// daemonRung: the real skiphashd subprocess, on the workload's own
// transport and in its own mode, over one connection.
func (t *tracer) daemonRung(e *env, w *workload, seed uint64, s *stream) (ns, allocsPerReq float64, err error) {
	tgt, err := w.open(e, 101)
	if err != nil {
		return 0, 0, err
	}
	defer tgt.close()
	cw := tgt.worker(0).(*connWorker)
	if err := prefillConn(w, seed, cw); err != nil {
		return 0, 0, err
	}
	n, stride := uint64(traceOpsClosed), 1
	if w.window > 1 {
		n, stride = traceOpsPipelined, w.window
	}
	m0 := mallocs()
	ns = t.replay("skiphashd", s, n, stride, connDo(cw))
	return ns, float64(mallocs()-m0) / float64(n), nil
}

// bucketQuantile estimates a quantile (in seconds) of the server's
// request-latency histogram from the cumulative bucket deltas among d.
func bucketQuantile(d counters, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k, v := range d {
		if le, ok := strings.CutPrefix(k, reqBucketPrefix); ok && le != "+Inf" {
			if f, err := strconv.ParseFloat(le, 64); err == nil {
				bs = append(bs, bucket{f, v})
			}
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := d[reqBucketPrefix+"+Inf"]
	if total == 0 || len(bs) == 0 {
		return 0
	}
	target := q * total
	var lo, cum float64
	for _, b := range bs {
		if b.cum >= target {
			if b.cum == cum {
				return b.le
			}
			return lo + (b.le-lo)*(target-cum)/(b.cum-cum)
		}
		lo, cum = b.le, b.cum
	}
	return bs[len(bs)-1].le
}
