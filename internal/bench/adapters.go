// Package bench is the evaluation harness: it reproduces the
// microbenchmark methodology of the paper's §5 (which follows Grimes et
// al. [23]) over every map implementation in this repository, and drives
// the experiments behind Figures 5 and 6 and Table 1.
//
// Worker threads perform lookups, updates (an even split of insertions
// and removals), and range queries in workload-specified proportions
// over a uniform key universe. Maps are pre-filled to half the universe;
// range queries copy all pairs in [l, l+len] into a pre-allocated
// buffer. Throughput is reported in millions of operations per second.
package bench

import (
	"fmt"

	"repro/internal/baseline/bundleskip"
	"repro/internal/baseline/vcasbst"
	"repro/internal/baseline/vcasskip"
	"repro/internal/epoch"
	"repro/internal/kv"
	"repro/internal/stm"
	"repro/internal/thashmap"
	"repro/internal/tskiplist"
	"repro/skiphash"
)

// Map is a benchmark subject: a named factory of per-thread workers.
type Map interface {
	// Name identifies the map in reports (matches the paper's series).
	Name() string
	// NewWorker returns a worker context owned by one goroutine.
	NewWorker() Worker
	// SupportsRange reports whether range queries are implemented.
	SupportsRange() bool
}

// Worker is the per-goroutine face of a Map. Implementations reuse
// buffers; results of Range report how many pairs were copied.
type Worker interface {
	Lookup(k int64) bool
	Insert(k, v int64) bool
	Remove(k int64) bool
	Range(l, r int64) int
}

// STMStatsSource is implemented by subjects that can report STM
// counters; the read experiment derives its fast-path hit rate from it.
type STMStatsSource interface {
	STMStats() stm.Stats
}

// --- Skip hash variants -------------------------------------------------

// SkipHash wraps a skip hash variant for the harness.
type SkipHash struct {
	m    *skiphash.Map[int64, int64]
	name string
}

// NewSkipHash builds the skip hash series: mode is "two-path", "fast",
// "slow" (the paper's three variants, each one shard), "adaptive" (this
// repo's extension), "txread" (the read-fast-path ablation: every point
// read runs the full STM transaction), or "sharded" (the partition count
// derived from GOMAXPROCS, the table size split across the shards).
// buckets of 0 selects the paper's table size.
func NewSkipHash(mode string, buckets int) *SkipHash {
	if buckets == 0 {
		buckets = thashmap.DefaultBuckets
	}
	cfg := skiphash.Config{Buckets: buckets, Shards: 1}
	name := "skiphash-two-path"
	switch mode {
	case "fast":
		cfg.FastOnly = true
		name = "skiphash-fast-only"
	case "slow":
		cfg.SlowOnly = true
		name = "skiphash-slow-only"
	case "adaptive":
		cfg.Adaptive = true
		name = "skiphash-adaptive"
	case "txread":
		cfg.DisableReadFastPath = true
		name = "skiphash-txread"
	case "sharded":
		cfg.Shards = 0
	case "", "two-path":
	default:
		panic(fmt.Sprintf("bench: unknown skip hash mode %q", mode))
	}
	m := skiphash.NewSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg)
	if mode == "sharded" {
		name = fmt.Sprintf("skiphash-sharded-%d", m.Shards())
	}
	return &SkipHash{m: m, name: name}
}

// Name implements Map.
func (s *SkipHash) Name() string { return s.name }

// SupportsRange implements Map.
func (s *SkipHash) SupportsRange() bool { return true }

// RangeStats reports the fast/slow range-path counters; Table 1 needs it.
func (s *SkipHash) RangeStats() skiphash.RangeStats { return s.m.RangeStats() }

// STMStats implements STMStatsSource.
func (s *SkipHash) STMStats() stm.Stats { return s.m.STMStats() }

// NewWorker implements Map.
func (s *SkipHash) NewWorker() Worker {
	return &skipHashWorker{h: s.m.NewHandle()}
}

type skipHashWorker struct {
	h   *skiphash.Handle[int64, int64]
	buf []skiphash.Pair[int64, int64]
}

func (w *skipHashWorker) Lookup(k int64) bool {
	_, ok := w.h.Lookup(k)
	return ok
}
func (w *skipHashWorker) Insert(k, v int64) bool { return w.h.Insert(k, v) }
func (w *skipHashWorker) Remove(k int64) bool    { return w.h.Remove(k) }
func (w *skipHashWorker) Range(l, r int64) int {
	w.buf = w.h.Range(l, r, w.buf[:0])
	return len(w.buf)
}

// --- vCAS BST ------------------------------------------------------------

// VcasBST wraps the vCAS leaf-oriented BST.
type VcasBST struct {
	m   *vcasbst.Map
	src string
}

// NewVcasBST builds the baseline with the given timestamp source
// ("hwclock" reproduces the paper's preferred rdtscp variant,
// "counter" the original).
func NewVcasBST(source string) *VcasBST {
	return &VcasBST{m: vcasbst.New(vcasbst.Config{Source: sourceByName(source)}), src: source}
}

// Name implements Map.
func (s *VcasBST) Name() string { return "bst-vcas-" + s.src }

// SupportsRange implements Map.
func (s *VcasBST) SupportsRange() bool { return true }

// NewWorker implements Map.
func (s *VcasBST) NewWorker() Worker { return &kvWorker{m: s.m} }

// --- vCAS skip list -------------------------------------------------------

// VcasSkip wraps the vCAS lock-free skip list.
type VcasSkip struct {
	m   *vcasskip.Map
	src string
}

// NewVcasSkip builds the baseline with the given timestamp source.
func NewVcasSkip(source string) *VcasSkip {
	return &VcasSkip{m: vcasskip.New(vcasskip.Config{Source: sourceByName(source)}), src: source}
}

// Name implements Map.
func (s *VcasSkip) Name() string { return "skiplist-vcas-" + s.src }

// SupportsRange implements Map.
func (s *VcasSkip) SupportsRange() bool { return true }

// NewWorker implements Map.
func (s *VcasSkip) NewWorker() Worker { return &kvWorker{m: s.m} }

// --- Bundled skip list ----------------------------------------------------

// BundleSkip wraps the bundled-references lazy skip list.
type BundleSkip struct {
	m   *bundleskip.Map
	src string
}

// NewBundleSkip builds the baseline with the given timestamp source.
func NewBundleSkip(source string) *BundleSkip {
	return &BundleSkip{m: bundleskip.New(bundleskip.Config{Source: sourceByName(source)}), src: source}
}

// Name implements Map.
func (s *BundleSkip) Name() string { return "skiplist-bundled-" + s.src }

// SupportsRange implements Map.
func (s *BundleSkip) SupportsRange() bool { return true }

// NewWorker implements Map.
func (s *BundleSkip) NewWorker() Worker { return &kvWorker{m: s.m} }

// kvWorker adapts any map with the native int64 interface.
type kvWorker struct {
	m interface {
		Lookup(k int64) (int64, bool)
		Insert(k, v int64) bool
		Remove(k int64) bool
		Range(l, r int64, buf []kv.KV) []kv.KV
	}
	buf []kv.KV
}

func (w *kvWorker) Lookup(k int64) bool {
	_, ok := w.m.Lookup(k)
	return ok
}
func (w *kvWorker) Insert(k, v int64) bool { return w.m.Insert(k, v) }
func (w *kvWorker) Remove(k int64) bool    { return w.m.Remove(k) }
func (w *kvWorker) Range(l, r int64) int {
	w.buf = w.m.Range(l, r, w.buf[:0])
	return len(w.buf)
}

// --- STM skip list (no range metadata) -------------------------------------

// StmSkip wraps the plain transactional skip list (elemental workloads
// only in the paper's charts; its single-transaction range is available
// for completeness).
type StmSkip struct {
	m *tskiplist.Map[int64, int64]
}

// NewStmSkip builds the "Skip List (STM)" baseline.
func NewStmSkip() *StmSkip {
	return &StmSkip{m: tskiplist.New[int64, int64](stm.New(), func(a, b int64) bool { return a < b }, tskiplist.DefaultMaxLevel)}
}

// Name implements Map.
func (s *StmSkip) Name() string { return "skiplist-stm" }

// SupportsRange implements Map.
func (s *StmSkip) SupportsRange() bool { return false }

// NewWorker implements Map.
func (s *StmSkip) NewWorker() Worker { return &stmSkipWorker{m: s.m} }

type stmSkipWorker struct {
	m   *tskiplist.Map[int64, int64]
	buf []tskiplist.Pair[int64, int64]
}

func (w *stmSkipWorker) Lookup(k int64) bool {
	_, ok := w.m.Get(k)
	return ok
}
func (w *stmSkipWorker) Insert(k, v int64) bool { return w.m.Insert(k, v) }
func (w *stmSkipWorker) Remove(k int64) bool    { return w.m.Remove(k) }
func (w *stmSkipWorker) Range(l, r int64) int {
	w.buf = w.buf[:0]
	pairs := w.m.Range(l, r)
	w.buf = append(w.buf, pairs...)
	return len(w.buf)
}

// --- STM hash map (no ordering) --------------------------------------------

// StmHash wraps the plain transactional hash map (elemental workloads
// only; it cannot order keys).
type StmHash struct {
	m *thashmap.Map[int64, int64]
}

// NewStmHash builds the "Hash Map (STM)" baseline with the paper's
// bucket count.
func NewStmHash(buckets int) *StmHash {
	if buckets == 0 {
		buckets = thashmap.DefaultBuckets
	}
	return &StmHash{m: thashmap.New[int64, int64](stm.New(), thashmap.Hash64, buckets)}
}

// Name implements Map.
func (s *StmHash) Name() string { return "hashmap-stm" }

// SupportsRange implements Map.
func (s *StmHash) SupportsRange() bool { return false }

// NewWorker implements Map.
func (s *StmHash) NewWorker() Worker { return &stmHashWorker{m: s.m} }

type stmHashWorker struct {
	m *thashmap.Map[int64, int64]
}

func (w *stmHashWorker) Lookup(k int64) bool {
	_, ok := w.m.Get(k)
	return ok
}
func (w *stmHashWorker) Insert(k, v int64) bool { return w.m.Insert(k, v) }
func (w *stmHashWorker) Remove(k int64) bool    { return w.m.Remove(k) }
func (w *stmHashWorker) Range(l, r int64) int {
	panic("bench: hashmap-stm does not support range queries")
}

func sourceByName(name string) epoch.Source {
	switch name {
	case "counter":
		return epoch.NewCounterSource()
	case "", "hwclock":
		return epoch.NewHybridSource()
	default:
		panic(fmt.Sprintf("bench: unknown timestamp source %q", name))
	}
}
