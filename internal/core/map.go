package core

import (
	"errors"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/persist"
	"repro/internal/stm"
)

// RemovalBufferDisabled is the explicit "no removal buffering" sentinel
// for Config.RemovalBufferSize: every removal is routed straight to the
// RQC (Figure 4's exact after_remove). Any negative value is treated the
// same; the named constant exists so the intent survives code review.
const RemovalBufferDisabled = -1

// Config selects the tunables the paper's evaluation varies.
type Config struct {
	// MaxLevel is the skip list tower height. The evaluation uses 20
	// (2^20 slightly exceeds the 10^6 key universe). Default 20.
	MaxLevel int
	// Buckets is the hash table size; should be prime. The evaluation
	// uses 714341 (smallest prime keeping utilization <= 70% at the
	// expected population of 5*10^5). Default 131071, a prime better
	// suited to general use; benchmarks set the paper's value.
	Buckets int
	// FastOnly and SlowOnly configure the two ablation variants of §5;
	// with neither, a range query makes fastPathTries single-transaction
	// attempts before falling back to the slow path. FastOnly makes range
	// queries retry the fast path forever (the "Skip-hash (Fast Only)"
	// series).
	FastOnly bool
	// SlowOnly makes range queries go straight to the slow path (the
	// "Skip-hash (Slow Only)" series).
	SlowOnly bool
	// Adaptive enables the fallback policy the paper's §5.2.3 suggests
	// exploring: after a range query exhausts its fast-path tries, the
	// next AdaptiveSkip queries from the same handle go straight to the
	// slow path before the fast path is probed again. Long-range
	// workloads then pay the doomed fast-path attempts only once per
	// probe window instead of on every query.
	Adaptive bool
	// AdaptiveSkip is the probe window for Adaptive (default 16).
	AdaptiveSkip int
	// DisableReadFastPath turns off the optimistic non-transactional
	// read fast path for Lookup/Contains and the cache warm-up descent
	// it gives range queries, forcing every point read through a full
	// STM transaction. The zero value keeps the fast path on; the switch
	// exists for the benchmark ablation (skipbench read's "txread"
	// series) and for debugging.
	DisableReadFastPath bool
	// RemovalBufferSize is the per-handle buffer of logically deleted
	// nodes whose unstitching is batched (§4.5, size 32 in the paper).
	// Zero selects the paper's default of 32 (the zero Config is the
	// recommended configuration); RemovalBufferDisabled (or any negative
	// value) disables buffering, yielding Figure 4's exact after_remove.
	RemovalBufferSize int
	// Maintenance opts into a background maintainer goroutine per map
	// (one per shard on the sharded frontend) that adopts orphaned
	// removal buffers — from closed handles, pooled convenience handles,
	// and Quiesce — and unstitches them in bounded transactional batches,
	// keeping the level-0 chain free of stitched-but-deleted garbage on
	// long-running servers. Without it orphans are still reclaimed, but
	// inline by whichever operation pushes the queue past its threshold.
	// Maps with Maintenance set must be Closed to stop the goroutine.
	Maintenance bool
	// MaintenanceInterval is the maintainer's periodic sweep interval
	// (default 25ms). The maintainer is also kicked eagerly whenever a
	// buffer is orphaned, so the interval only bounds staleness when
	// kicks are coalesced under load.
	MaintenanceInterval time.Duration
	// Clock overrides the STM commit clock (default: monotonic
	// "hardware" clock, the configuration the paper reports).
	Clock stm.Clock
	// Shards selects the initial partition count of the sharded
	// frontend (internal/shard, surfaced as skiphash.NewSharded). Zero
	// derives a power of two from GOMAXPROCS. The count is only
	// initial: Sharded.Resize migrates to a new count under live
	// traffic, and a durable map reopens at whatever count this field
	// asks for. A single map ignores it; Buckets is interpreted as the
	// total across shards.
	Shards int
	// Durability, when non-nil, makes the map durable: committed
	// insert/remove/batch operations are written to a commit-stamp-
	// ordered write-ahead log in Durability.Dir, background snapshots
	// bound its replay length, and skiphash.Open recovers the map from
	// that directory. The field is consumed by the Open constructors;
	// New/NewIn ignore it (they cannot recover — recovery needs codecs).
	Durability *persist.Options
}

// fastPathTries is the number of single-transaction range attempts
// before the slow path takes over; the paper uses 3.
const fastPathTries = 3

func (c Config) withDefaults() Config {
	if c.MaxLevel == 0 {
		c.MaxLevel = 20
	}
	if c.Buckets == 0 {
		c.Buckets = 131071
	}
	if c.RemovalBufferSize == 0 {
		c.RemovalBufferSize = 32 // the zero Config buffers at the paper's size
	}
	if c.RemovalBufferSize < 0 {
		c.RemovalBufferSize = 0 // RemovalBufferDisabled: exact after_remove
	}
	if c.AdaptiveSkip == 0 {
		c.AdaptiveSkip = 16
	}
	if c.MaintenanceInterval <= 0 {
		c.MaintenanceInterval = 25 * time.Millisecond // non-positive would panic time.NewTicker
	}
	return c
}

// Map is the skip hash. All methods are safe for concurrent use. Hot
// paths should go through per-goroutine Handles (see NewHandle); the
// convenience methods on Map borrow pooled handles.
type Map[K comparable, V any] struct {
	rt    *stm.Runtime
	less  func(a, b K) bool
	cfg   Config
	index index[K, V]
	head  *node[K, V]
	tail  *node[K, V]
	rqc   rqc[K, V]

	handlePool sync.Pool
	mu         sync.Mutex
	handles    []*Handle[K, V]
	// retired accumulates the range-path counters of handles that left
	// the registry (closed handles) and of pooled transient handles,
	// banked on every release, so RangeStats never loses history.
	retired retiredStats

	// orphans is the per-map orphan queue: logically deleted nodes whose
	// owning removal buffer went away (handle closed, pooled handle
	// released, Quiesce handoff) and that now await batched unstitching
	// by the maintainer or an inline drain.
	orphanMu sync.Mutex
	orphans  []*node[K, V]
	// adoptMu serializes orphan adoption across the drain itself, so
	// quiescence points can wait out an in-flight maintainer drain.
	adoptMu sync.Mutex

	maint      *maintainer[K, V]
	maintStats maintCounters
	// maintObs, when set, receives every orphan-adoption drain's node
	// count and duration (SetMaintenanceObserver). Core stays free of
	// metrics dependencies; the observer is a plain func the embedding
	// layer points at its histogram.
	maintObs atomic.Pointer[func(nodes int, d time.Duration)]
	closed   atomic.Bool
	// closeDone lets concurrent Close calls (and anyone who must know
	// teardown finished) wait for the one closing goroutine.
	closeDone chan struct{}

	// logger is the durability hook (AttachPersistence): it captures
	// committed logical operations into the WAL. Nil on non-durable maps.
	logger OpLogger[K, V]

	// tap, when set, observes every committed write in commit-stamp
	// order (SetWriteTap); the sharded frontend points it at a
	// migration's delta log while this map is a resize source. Nil —
	// one atomic load on the write path — outside migrations.
	tap atomic.Pointer[func(del bool, k K, v V, stamp uint64)]
}

// putTap and delTap are the Map as the publish-hook targets an update
// registers while a write tap is installed (the separate names keep the
// hook methods out of Map's exported method set). The payload is the
// inserted or removed node, which carries the key and value, so
// registering the hook allocates nothing.
type (
	putTap[K comparable, V any] Map[K, V]
	delTap[K comparable, V any] Map[K, V]
)

func (t *putTap[K, V]) Published(stamp uint64, arg unsafe.Pointer) {
	if tap := t.tap.Load(); tap != nil {
		n := (*node[K, V])(arg)
		(*tap)(false, n.key, n.val, stamp)
	}
}

func (t *delTap[K, V]) Published(stamp uint64, arg unsafe.Pointer) {
	if tap := t.tap.Load(); tap != nil {
		var zero V
		(*tap)(true, (*node[K, V])(arg).key, zero, stamp)
	}
}

// OpLogger observes the logical effect of committed transactions: every
// state-changing insert is reported as a put and every state-changing
// removal as a delete, from inside the transaction body. Implementations
// (persist.Store) buffer per attempt and emit on commit, so an aborted
// attempt reports nothing.
type OpLogger[K comparable, V any] interface {
	LogPut(tx *stm.Tx, k K, v V)
	LogDel(tx *stm.Tx, k K)
}

// Persister is the non-generic face of the durability engine the
// sharded frontend delegates lifecycle operations to; persist.Store
// implements it.
type Persister interface {
	// Snapshot writes a full snapshot now and truncates covered WAL
	// segments.
	Snapshot() error
	// Sync forces all logged operations to durable storage.
	Sync() error
	// Close flushes and fsyncs the log and closes the files.
	Close() error
	// SimulateCrash abandons the engine as a process crash would:
	// unflushed records are lost and nothing more is logged.
	SimulateCrash() error
	// Err reports the sticky background I/O error, if any.
	Err() error
}

// ErrNotDurable is returned by durability operations on a map that was
// not opened with persistence attached.
var ErrNotDurable = errors.New("core: map has no durability attached")

// retiredStats is RangeStats with atomic fields, aggregating counters of
// handles no longer in the registry.
type retiredStats struct {
	fastAttempts atomic.Uint64
	fastAborts   atomic.Uint64
	fastCommits  atomic.Uint64
	slowCommits  atomic.Uint64
}

// New creates a skip hash ordered by less and hashed by hash. It builds
// a private STM runtime from cfg.Clock; callers embedding the map in a
// larger transactional system (for example the sharded frontend in
// internal/shard) inject an existing runtime with NewIn instead.
func New[K comparable, V any](less func(a, b K) bool, hash func(K) uint64, cfg Config) *Map[K, V] {
	return NewIn[K, V](stm.New(stm.WithClock(cfg.Clock)), less, hash, cfg)
}

// NewIn creates a skip hash whose transactions run on the existing
// runtime rt. Every dependency is injected: rt supplies the commit clock
// and descriptor pool, hash the distribution over cfg.Buckets chains,
// and less the ordering. Maps sharing one runtime live in one timestamp
// and transaction-ID domain, so a single transaction may span them (see
// Handle.Bind); maps on distinct runtimes are fully independent and must
// never be touched from one transaction.
func NewIn[K comparable, V any](rt *stm.Runtime, less func(a, b K) bool, hash func(K) uint64, cfg Config) *Map[K, V] {
	cfg = cfg.withDefaults()
	m := &Map[K, V]{
		rt:        rt,
		less:      less,
		cfg:       cfg,
		closeDone: make(chan struct{}),
	}
	m.index = newIndex[K, V](hash, cfg.Buckets)
	m.head = newNode[K, V](cfg.MaxLevel)
	m.head.sentinel = -1
	m.tail = newNode[K, V](cfg.MaxLevel)
	m.tail.sentinel = 1
	for l := 0; l < cfg.MaxLevel; l++ {
		m.head.nextAt(l).Init(m.tail)
		m.tail.prevAt(l).Init(m.head)
	}
	m.handlePool.New = func() any { return m.NewTransientHandle() }
	if cfg.Maintenance {
		m.maint = startMaintainer(m, cfg.MaintenanceInterval)
	}
	return m
}

// Close shuts the map down: it stops the background maintainer (when
// Config.Maintenance enabled one), flushes every registered handle's
// removal buffer and drains the orphan queue, so a quiescent map holds
// no stitched logically-deleted nodes afterwards. Close is idempotent
// and safe to call concurrently with operations, with Quiesce, and with
// other Close calls: every call returns only after teardown has
// completed, no matter which call performed it. Operations issued after
// Close fall back to inline reclamation. Maps without maintenance may
// skip Close; nothing leaks beyond the map itself.
func (m *Map[K, V]) Close() {
	if m.closed.Swap(true) {
		<-m.closeDone
		return
	}
	defer close(m.closeDone)
	if m.maint != nil {
		m.maint.stop()
	}
	m.Quiesce()
}

// Closed reports whether Close has been called.
func (m *Map[K, V]) Closed() bool { return m.closed.Load() }

// HandleCount returns the number of handles currently registered with
// the map (explicitly created via NewHandle and not yet closed). Pooled
// convenience handles are transient and never appear here; the count is
// the leak-detection probe for handle-lifecycle tests.
func (m *Map[K, V]) HandleCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.handles)
}

// Runtime exposes the underlying STM runtime (for stats and tests).
func (m *Map[K, V]) Runtime() *stm.Runtime { return m.rt }

// Config returns the configuration the map was built with (with defaults
// applied).
func (m *Map[K, V]) Config() Config { return m.cfg }

// AttachPersistence wires the durability hook: l observes every
// committed logical operation from this point on. The engine's
// snapshots, syncs and shutdown belong to the sharded frontend that
// owns it. It must be called before the map is shared. Recovery
// bulk-builds the map with LoadSorted just before, which runs no
// transaction and so logs none of the recovered pairs.
func (m *Map[K, V]) AttachPersistence(l OpLogger[K, V]) {
	m.logger = l
}

// SetWriteTap installs fn to observe every committed state-changing
// write (puts and deletes) from this point on. Hooks run inside the
// commit, after validation and with ownership records still held, so
// two conflicting writes report in their exact commit order; aborted
// attempts report nothing. The caller must ensure no write transaction
// is in flight at installation (the sharded frontend drains its
// migration gate first) — a transaction that began before the tap was
// visible commits unobserved. fn must not touch this map.
func (m *Map[K, V]) SetWriteTap(fn func(del bool, k K, v V, stamp uint64)) {
	m.tap.Store(&fn)
}

// ClearWriteTap removes the write tap. Writes that committed before the
// clear have already reported; the caller serializes against in-flight
// writers the same way as for SetWriteTap.
func (m *Map[K, V]) ClearWriteTap() { m.tap.Store(nil) }

// randomHeight draws from the geometric distribution with p = 1/2 in
// [1, MaxLevel] (§3).
func (m *Map[K, V]) randomHeight() int {
	h := bits.TrailingZeros64(rand.Uint64()|(1<<63)) + 1
	if h > m.cfg.MaxLevel {
		h = m.cfg.MaxLevel
	}
	return h
}

// nodeBefore reports whether n orders strictly before key k, counting
// sentinels as infinities.
func (m *Map[K, V]) nodeBefore(n *node[K, V], k K) bool {
	if n.sentinel != 0 {
		return n.sentinel < 0
	}
	return m.less(n.key, k)
}

// nodeBeforeOrAt additionally admits equal keys; the stitching search
// uses it so a new node lands after logically deleted nodes sharing its
// key (§4.2's insert_after_logical_deletes).
func (m *Map[K, V]) nodeBeforeOrAt(n *node[K, V], k K) bool {
	if n.sentinel != 0 {
		return n.sentinel < 0
	}
	return !m.less(k, n.key)
}

// findPreds descends the tower, storing into preds (len MaxLevel) the
// rightmost node at each level for which before(node, k) holds, and
// returns the level-0 successor of preds[0].
func (m *Map[K, V]) findPreds(tx *stm.Tx, k K, preds []*node[K, V], before func(*node[K, V], K) bool) *node[K, V] {
	cur := m.head
	for l := m.cfg.MaxLevel - 1; l >= 0; l-- {
		for {
			nxt := cur.nextAt(l).Load(tx, &cur.orec)
			if !before(nxt, k) {
				break
			}
			cur = nxt
		}
		preds[l] = cur
	}
	return preds[0].next0.Load(tx, &preds[0].orec)
}

// lookupTx is Figure 1's lookup: the hash map routes straight to the
// node, so presence costs O(1).
func (m *Map[K, V]) lookupTx(tx *stm.Tx, k K) (V, bool) {
	n := m.index.getTx(tx, k)
	if n == nil {
		var zero V
		return zero, false
	}
	return n.val, true
}

// containsTx reports presence without touching the node at all.
func (m *Map[K, V]) containsTx(tx *stm.Tx, k K) bool {
	return m.index.getTx(tx, k) != nil
}

// lookupFast is lookupTx without the transaction: one optimistic index
// probe validated against the bucket's orec word alone — no clock, no
// descriptor. The third result reports whether the fast path answered;
// on false the caller must fall back to lookupTx in a full transaction.
// Validating the single bucket orec suffices for linearizability: index
// membership is exactly logical presence (insert and remove update the
// index inside the same transaction that stitches or stamps the node), a
// node's key and value are immutable once published, and any commit
// touching the bucket between sample and revalidation releases the orec
// at a strictly newer version, changing the sampled word. A validated
// probe therefore observed the one committed state current at its sample
// instant and linearizes there, with the same residual
// acquire/write/rollback exposure as the transactional read protocol
// (see the stm package doc).
func (m *Map[K, V]) lookupFast(k K) (v V, present, answered bool) {
	n, ok := m.index.getFast(k)
	if !ok {
		return v, false, false
	}
	if n == nil {
		return v, false, true
	}
	return n.val, true, true
}

// containsFast is containsTx on the optimistic fast path; see lookupFast.
func (m *Map[K, V]) containsFast(k K) (present, answered bool) {
	n, ok := m.index.getFast(k)
	if !ok {
		return false, false
	}
	return n != nil, true
}

// Prefetch warms the cache lines a point read of k will touch — the hash
// bucket chain and the node's hot line — through atomic loads the
// compiler cannot elide. It has no consistency implications and returns
// nothing; the server's drain loop uses it to overlap the next run's
// index probes with the current run's execution.
func (m *Map[K, V]) Prefetch(k K) {
	if n := m.index.prefetch(k); n != nil {
		_ = n.rTime.Raw()
	}
}

// insertTx is Figure 2's insert. h supplies the scratch predecessor
// array; the caller owns the enclosing transaction.
func (m *Map[K, V]) insertTx(tx *stm.Tx, h *Handle[K, V], k K, v V) bool {
	if m.index.getTx(tx, k) != nil {
		return false // O(1): key already present
	}
	// The key may still exist in the skip list as logically deleted
	// nodes; position the new node after them.
	m.findPreds(tx, k, h.preds, m.nodeBeforeOrAt)
	n := newNode[K, V](m.randomHeight())
	n.key = k
	n.val = v
	n.iTime = m.rqc.onUpdate(tx)
	for l := 0; l < n.height(); l++ {
		p := h.preds[l]
		s := p.nextAt(l).Load(tx, &p.orec)
		n.prevAt(l).Init(p)
		n.nextAt(l).Init(s)
		p.nextAt(l).Store(tx, &p.orec, n)
		s.prevAt(l).Store(tx, &s.orec, n)
	}
	m.index.insertTx(tx, n)
	if m.logger != nil {
		m.logger.LogPut(tx, k, v)
	}
	if m.tap.Load() != nil {
		tx.OnPublish((*putTap[K, V])(m), unsafe.Pointer(n))
	}
	return true
}

// removeTx is Figure 2's remove: O(1) routing through the map, logical
// deletion by stamping rTime, and delegation of the physical unstitch to
// the RQC (possibly via the handle's removal buffer).
func (m *Map[K, V]) removeTx(tx *stm.Tx, h *Handle[K, V], k K) bool {
	n := m.index.removeTx(tx, k)
	if n == nil {
		return false // O(1): key absent
	}
	n.rTime.Store(tx, &n.orec, m.rqc.onUpdate(tx))
	if m.logger != nil {
		m.logger.LogDel(tx, k)
	}
	if m.tap.Load() != nil {
		tx.OnPublish((*delTap[K, V])(m), unsafe.Pointer(n))
	}
	m.afterRemove(tx, h, n)
	return true
}

// unstitchTx physically removes n from every level. Double-linking makes
// this O(height) with no traversal (§3). The node's orec is acquired
// first so removals own everything they read.
func (m *Map[K, V]) unstitchTx(tx *stm.Tx, n *node[K, V]) {
	tx.Acquire(&n.orec)
	for l := 0; l < n.height(); l++ {
		p := n.prevAt(l).Load(tx, &n.orec)
		s := n.nextAt(l).Load(tx, &n.orec)
		p.nextAt(l).Store(tx, &p.orec, s)
		s.prevAt(l).Store(tx, &s.orec, p)
	}
}

// ceilNodeTx returns the first logically present node with key >= k
// (m.tail if none), plus scratch-free O(1) handling when the key is
// present in the map.
func (m *Map[K, V]) ceilNodeTx(tx *stm.Tx, h *Handle[K, V], k K) *node[K, V] {
	if n := m.index.getTx(tx, k); n != nil {
		return n // O(1) when the key is present (Fig. 1 ceil)
	}
	c := m.findPreds(tx, k, h.preds, m.nodeBefore)
	for c.sentinel == 0 && c.deleted(tx) {
		c = c.next0.Load(tx, &c.orec)
	}
	return c
}

// CeilTx returns the smallest key >= k.
func (m *Map[K, V]) ceilTx(tx *stm.Tx, h *Handle[K, V], k K) (K, V, bool) {
	return m.liveKeyOf(m.ceilNodeTx(tx, h, k))
}

// succTx returns the smallest key > k. When k is present the map routes
// to its node and the successor is one link away (Fig. 1 succ).
func (m *Map[K, V]) succTx(tx *stm.Tx, h *Handle[K, V], k K) (K, V, bool) {
	var c *node[K, V]
	if n := m.index.getTx(tx, k); n != nil {
		c = n.next0.Load(tx, &n.orec)
	} else {
		c = m.findPreds(tx, k, h.preds, m.nodeBeforeOrAt)
	}
	for c.sentinel == 0 && c.deleted(tx) {
		c = c.next0.Load(tx, &c.orec)
	}
	return m.liveKeyOf(c)
}

// floorTx returns the largest key <= k.
func (m *Map[K, V]) floorTx(tx *stm.Tx, h *Handle[K, V], k K) (K, V, bool) {
	if n := m.index.getTx(tx, k); n != nil {
		return n.key, n.val, true
	}
	c := m.findPreds(tx, k, h.preds, m.nodeBefore)
	p := c.prev0.Load(tx, &c.orec)
	for p.sentinel == 0 && p.deleted(tx) {
		p = p.prev0.Load(tx, &p.orec)
	}
	return m.liveKeyOf(p)
}

// predTx returns the largest key < k.
func (m *Map[K, V]) predTx(tx *stm.Tx, h *Handle[K, V], k K) (K, V, bool) {
	var c *node[K, V]
	if n := m.index.getTx(tx, k); n != nil {
		c = n.prev0.Load(tx, &n.orec)
	} else {
		first := m.findPreds(tx, k, h.preds, m.nodeBefore)
		c = first.prev0.Load(tx, &first.orec)
	}
	for c.sentinel == 0 && c.deleted(tx) {
		c = c.prev0.Load(tx, &c.orec)
	}
	return m.liveKeyOf(c)
}

func (m *Map[K, V]) liveKeyOf(n *node[K, V]) (K, V, bool) {
	if n.sentinel != 0 {
		var zk K
		var zv V
		return zk, zv, false
	}
	return n.key, n.val, true
}
