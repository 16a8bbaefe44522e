package core

import (
	"errors"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/persist"
	"repro/internal/stm"
)

// Config selects the tunables the paper's evaluation varies.
type Config struct {
	// MaxLevel is the skip list tower height. The evaluation uses 20
	// (2^20 slightly exceeds the 10^6 key universe). Default 20, which at
	// this map's p = 1/4 (see randomHeight) covers about 4^20 keys; values
	// outside [0, 64] panic, since a node is never taller than 64 levels.
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
	// DisableReadFastPath turns off both optimistic non-transactional
	// paths: the Lookup/Contains fast path and the raw tower descent
	// every insert, ordered query, range and iterator starts with. Every
	// point read then runs in a full STM transaction, and every descent
	// reads each node it passes in the transaction (findPreds), as the
	// paper's Figure 2 does. The zero value keeps both on; the switch
	// exists for the benchmark ablation (skipbench read's "txread"
	// series), for keeping the transactional descent tested, and for
	// debugging.
	DisableReadFastPath bool
	// Maintenance is ignored: a removal reclaims its own node (see
	// Map), and no map starts a goroutine. The field stays until a
	// change to benchmark/ retires it (benchmark/ladder.go sets it).
	Maintenance bool
	// Durability, when non-nil, makes the map durable: committed
	// insert/remove/batch operations are written to a commit-stamp-
	// ordered write-ahead log in Durability.Dir, background snapshots
	// bound its replay length, and skiphash.Open recovers the map from
	// that directory. The field is consumed by skiphash.Open; New
	// ignores it (it cannot recover — recovery needs codecs).
	Durability *persist.Options

	// rt, when set (OnRuntime), is the STM runtime New builds the map
	// on; nil gives the map a runtime of its own.
	rt *stm.Runtime
}

// OnRuntime returns cfg with rt as the STM runtime of every map built
// from it, so those maps share one commit clock, descriptor pool and
// set of transaction counters, hooks and commit observer. A server
// builds every map it owns this way; an embedded map keeps its own.
func OnRuntime(cfg Config, rt *stm.Runtime) Config {
	cfg.rt = rt
	return cfg
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
	return c
}

// Map is the skip hash. All methods are safe for concurrent use, and,
// as in Figure 2, every operation is a method of the map that keeps no
// state between calls: a search's scratch lives on its own stack, and
// each count goes to the calling goroutine's cell of a striped counter
// set (stm.Stripes): the runtime's for transactions and fast reads, the
// map's for ranges and reclamation.
//
// A removal reclaims its own node, as Figure 4's after_remove does: the
// removing transaction unstitches the node, or, when a slow-path range
// query older than the node is in flight, appends it to that query's
// deferred list, which the query's after_range unstitches. So on a map
// with no slow range query in flight every stitched node is live.
type Map[K comparable, V any] struct {
	rt    *stm.Runtime
	less  func(a, b K) bool
	cfg   Config
	index index[K, V]
	head  *node[K, V]
	tail  *node[K, V]
	rqc   rqc[K, V]

	// counters holds the range-path and reclamation counts.
	counters stm.Stripes[mapCounters]

	// logger is the durability hook (AttachPersistence): it captures
	// committed logical operations into the WAL; persister owns the
	// engine's snapshots, syncs and shutdown. Both nil on in-memory maps.
	logger    OpLogger[K, V]
	persister Persister
	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error // set once, inside closeOnce
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

// Persister is the non-generic face of the durability engine the map
// delegates its lifecycle operations to; persist.Store implements it.
type Persister interface {
	// Snapshot writes a full snapshot now and truncates covered WAL
	// segments.
	Snapshot() error
	// Sync forces all logged operations to durable storage.
	Sync() error
	// Close flushes and fsyncs the log and closes the files.
	Close() error
	// SimulateCrash abandons the engine as a process crash would:
	// unflushed records are lost and every later write is refused.
	SimulateCrash() error
	// Err reports the sticky background I/O error, if any.
	Err() error
}

// ErrNotDurable is returned by durability operations on a map that was
// not opened with persistence attached.
var ErrNotDurable = errors.New("core: map has no durability attached")

// New creates a skip hash ordered by less and hashed by hash, on its
// own STM runtime or the one OnRuntime set in cfg: the runtime supplies
// the commit clock and descriptor pool, hash the distribution over
// cfg.Buckets chains, and less the ordering.
func New[K comparable, V any](less func(a, b K) bool, hash func(K) uint64, cfg Config) *Map[K, V] {
	if cfg.MaxLevel < 0 || cfg.MaxLevel > maxHeight {
		panic("core: Config.MaxLevel must be in [0, 64]")
	}
	cfg = cfg.withDefaults()
	m := &Map[K, V]{
		rt:   cfg.rt,
		less: less,
		cfg:  cfg,
	}
	if m.rt == nil {
		m.rt = stm.New()
	}
	m.index = newIndex[K, V](hash, cfg.Buckets)
	m.head = newNode[K, V](cfg.MaxLevel)
	m.tail = newNode[K, V](cfg.MaxLevel)
	for l := 0; l < cfg.MaxLevel; l++ {
		m.head.nextAt(l).Init(m.tail)
		m.tail.prevAt(l).Init(m.head)
	}
	return m
}

// Close flushes, fsyncs and closes a durable map's write-ahead log; on
// an in-memory map, which owns no goroutine, it only marks the map
// closed. Close is idempotent and safe concurrent with operations and
// other Close calls: every call returns only after the log is closed,
// and returns the same error. That error reports whatever kept
// acknowledged writes from reaching the disk: the engine's close error
// (a log I/O failure), else its sticky Err. After Close a durable map
// refuses every write (see Atomic) and keeps serving reads; an
// in-memory map keeps working.
func (m *Map[K, V]) Close() error {
	m.closed.Store(true)
	m.closeOnce.Do(func() {
		if m.persister != nil {
			if m.closeErr = m.persister.Close(); m.closeErr == nil {
				m.closeErr = m.persister.Err()
			}
		}
	})
	return m.closeErr
}

// Closed reports whether Close has been called.
func (m *Map[K, V]) Closed() bool { return m.closed.Load() }

// Runtime exposes the underlying STM runtime (for stats and tests).
func (m *Map[K, V]) Runtime() *stm.Runtime { return m.rt }

// STMStats returns the transaction counters of the map's runtime.
func (m *Map[K, V]) STMStats() stm.Stats { return m.rt.Stats() }

// Config returns the configuration the map was built with (with defaults
// applied).
func (m *Map[K, V]) Config() Config { return m.cfg }

// Shards returns 1: the map is one structure. It stays until a change to
// benchmark/ retires it; the benchmark reports it as shard.count.
func (m *Map[K, V]) Shards() int { return 1 }

// AttachPersistence wires durability: l observes every committed
// logical operation from this point on, and p owns the engine's
// snapshots, syncs and shutdown. It must be called before the map is
// shared. Recovery bulk-builds the map with LoadSorted just before,
// which runs no transaction and so logs none of the recovered pairs.
func (m *Map[K, V]) AttachPersistence(l OpLogger[K, V], p Persister) {
	m.logger = l
	m.persister = p
}

// Persister returns the durability engine, or nil on in-memory maps.
func (m *Map[K, V]) Persister() Persister { return m.persister }

// Snapshot writes a durable snapshot now (and truncates the WAL
// segments it covers). ErrNotDurable without persistence.
func (m *Map[K, V]) Snapshot() error { return m.durabilityOp(Persister.Snapshot) }

// Sync forces every logged operation to durable storage, regardless of
// the configured fsync policy. ErrNotDurable without persistence.
func (m *Map[K, V]) Sync() error { return m.durabilityOp(Persister.Sync) }

// SimulateCrash abandons the durability engine the way a process crash
// would: buffered records are lost, and from then on the map refuses
// every write (see Atomic) and keeps serving reads. Reopen the directory
// to observe what survived. ErrNotDurable without persistence.
func (m *Map[K, V]) SimulateCrash() error { return m.durabilityOp(Persister.SimulateCrash) }

func (m *Map[K, V]) durabilityOp(op func(Persister) error) error {
	if m.persister == nil {
		return ErrNotDurable
	}
	return op(m.persister)
}

// randomHeight draws from the geometric distribution with p = 1/4 in
// [1, MaxLevel]. The paper's §3 draws p = 1/2. This map routes every
// point operation but a successful insert and an absent-key query
// through the hash index, so its towers are paid for mostly in memory;
// Pugh's analysis gives p = 1/4 the same expected descent cost,
// (1/p)·log_{1/p} n, with a third of the tower links: 1.33 levels per
// node instead of 2.
func (m *Map[K, V]) randomHeight() int {
	return min(heightOf(rand.Uint64()), m.cfg.MaxLevel)
}

// heightOf maps a uniform 64-bit word to a height, two bits per level:
// h with probability (3/4)(1/4)^(h-1), and never above 32.
func heightOf(w uint64) int {
	return bits.TrailingZeros64(w|1<<63)/2 + 1
}

// nodeBefore reports whether n orders strictly before key k, counting
// the head and tail sentinels as infinities.
func (m *Map[K, V]) nodeBefore(n *node[K, V], k K) bool {
	switch n {
	case m.head:
		return true
	case m.tail:
		return false
	}
	return m.less(n.key, k)
}

// nodeBeforeOrAt additionally admits equal keys; the stitching search
// uses it so a new node lands after logically deleted nodes sharing its
// key (§4.2's insert_after_logical_deletes).
func (m *Map[K, V]) nodeBeforeOrAt(n *node[K, V], k K) bool {
	switch n {
	case m.head:
		return true
	case m.tail:
		return false
	}
	return !m.less(k, n.key)
}

// findPreds descends the tower inside tx, storing into preds (len
// MaxLevel) the rightmost node at each level for which before(node, k)
// holds, and returns the level-0 successor of preds[0]. It is seekTx's
// fallback, and the only search when Config.DisableReadFastPath is set.
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
	runDescentHook(preds, true)
	return preds[0].next0.Load(tx, &preds[0].orec)
}

// descentHook, when installed, runs after every search with a copy of
// the predecessors it recorded (a []*node[K, V]): after a raw descent
// (fallback false), between the descent and the in-transaction check of
// its pairs, so tests can deterministically change the list under a
// recorded pair; and after findPreds (fallback true).
var descentHook atomic.Pointer[func(preds any, fallback bool)]

// setDescentHook installs fn (nil removes it) to run after every
// search. Test instrumentation only.
func setDescentHook(fn func(preds any, fallback bool)) {
	if fn == nil {
		descentHook.Store(nil)
		return
	}
	descentHook.Store(&fn)
}

// runDescentHook runs the installed descent hook, if any, on a copy of
// preds, so the caller's stack scratch does not escape.
func runDescentHook[K comparable, V any](preds []*node[K, V], fallback bool) {
	if h := descentHook.Load(); h != nil {
		(*h)(slices.Clone(preds), fallback)
	}
}

// descend walks the tower toward k through the links' atomic backing,
// with no transaction and no validation, storing into preds (len
// MaxLevel) the rightmost node it reached at each level for which
// before(node, k) held. Every search runs it (seekTx); the caller's
// transaction then reads only the pairs that decide its result
// (bracketsTx), so a search costs its cache misses and a few orec reads
// instead of ~2·log2 n of them.
//
// The walk terminates because inserts, removals and their undos never
// create a level cycle, and only immutable state (keys, the sentinels'
// identity) steers it. What it records may be stale or torn; a recorded
// predecessor p and its level-l successor s = p.next(l), both read in
// the caller's transaction, still bracket k there when s.prev(l) == p
// and !before(s, k):
//   - Keys are immutable and the walk steps onto a node only when
//     before(node, k) held, so p orders before k with no check.
//   - In one consistent snapshot, p.next(l) == s and s.prev(l) == p mean
//     both nodes are linked at level l: unstitching either one rewrites
//     the other's link (unstitchTx writes pred.next and succ.prev), and
//     a node is never relinked once unstitched.
//   - A node whose insert is still in flight is reachable only through
//     a link whose orec its inserter holds, and its successor's prev
//     names it only once that orec is held too, so a pair that involves
//     it either conflicts (the transaction retries) or fails the check.
//     A node whose insert rolled back fails s.prev(l) == p: the undo
//     restored its successor's link.
//
// So the pair is adjacent at level l with p before k and s not, the one
// gap findPreds would have returned at that level. A pair that fails
// the check sends the search to findPreds for that attempt, the way a
// failed getFast sends a point read to getTx.
func (m *Map[K, V]) descend(k K, preds []*node[K, V], before func(*node[K, V], K) bool) {
	cur := m.head
	for l := m.cfg.MaxLevel - 1; l >= 0; l-- {
		for {
			nxt := cur.nextAt(l).Raw()
			if nxt == nil || !before(nxt, k) {
				break
			}
			cur = nxt
		}
		preds[l] = cur
	}
	runDescentHook(preds, false)
}

// seekTx finds k's place under before for a transaction and returns
// the level-0 successor there, as findPreds does. The predecessors live
// in scratch on seekTx's own stack: its callers need only the node it
// returns, and an insert's links, which it sets. It descends raw and
// reads in tx only the pairs that decide the result (bracketsTx): the
// level-0 pair, and for an insert of the fresh node n every pair below
// n's height, which n's links are pointed at. A pair that fails the
// check runs findPreds for this attempt; Config.DisableReadFastPath
// makes findPreds the only search.
func (m *Map[K, V]) seekTx(tx *stm.Tx, k K, before func(*node[K, V], K) bool, n *node[K, V]) *node[K, V] {
	var buf [maxHeight]*node[K, V]
	preds := buf[:m.cfg.MaxLevel]
	if !m.cfg.DisableReadFastPath {
		m.descend(k, preds, before)
		if s, ok := m.bracketsTx(tx, preds, k, before, n); ok {
			return s
		}
	}
	s := m.findPreds(tx, k, preds, before)
	if n != nil {
		for l := 0; l < n.height(); l++ {
			p := preds[l]
			n.prevAt(l).Init(p)
			n.nextAt(l).Init(p.nextAt(l).Load(tx, &p.orec))
		}
	}
	return s
}

// bracketsTx checks in tx that each pair descend recorded, at level 0
// and, when n is non-nil, at every level below n's height, still
// brackets k: the recorded predecessor p and its successor s =
// p.next(l) satisfy s.prev(l) == p and !before(s, k). It points n's
// links at each checked pair and returns the level-0 successor. The
// splice reuses the pairs through n, so the check adds one read per
// level, s.prev(l), of an orec the insert acquires anyway.
func (m *Map[K, V]) bracketsTx(tx *stm.Tx, preds []*node[K, V], k K, before func(*node[K, V], K) bool, n *node[K, V]) (s0 *node[K, V], ok bool) {
	levels := 1
	if n != nil {
		levels = n.height()
	}
	for l := 0; l < levels; l++ {
		p := preds[l]
		s := p.nextAt(l).Load(tx, &p.orec)
		if s.prevAt(l).Load(tx, &s.orec) != p || before(s, k) {
			return nil, false
		}
		if n != nil {
			n.prevAt(l).Init(p)
			n.nextAt(l).Init(s)
		}
		if l == 0 {
			s0 = s
		}
	}
	return s0, true
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

// insertTx is Figure 2's insert; the caller owns the enclosing
// transaction.
func (m *Map[K, V]) insertTx(tx *stm.Tx, k K, v V) bool {
	if m.index.getTx(tx, k) != nil {
		return false // O(1): key already present
	}
	n := newNode[K, V](m.randomHeight())
	n.key = k
	n.val = v
	// The key may still exist in the skip list as logically deleted
	// nodes; position the new node after them.
	m.seekTx(tx, k, m.nodeBeforeOrAt, n)
	n.setITime(m.rqc.onUpdate(tx))
	for l := 0; l < n.height(); l++ {
		p, s := n.prevAt(l).Raw(), n.nextAt(l).Raw()
		p.nextAt(l).Store(tx, &p.orec, n)
		s.prevAt(l).Store(tx, &s.orec, n)
	}
	m.index.insertTx(tx, n)
	if m.logger != nil {
		m.logger.LogPut(tx, k, v)
	}
	return true
}

// removeTx is Figure 2's remove: O(1) routing through the map, logical
// deletion by stamping rTime, and delegation of the physical unstitch to
// the RQC's after_remove. An unstitch counts in the calling goroutine's
// counter cell once tx commits.
func (m *Map[K, V]) removeTx(tx *stm.Tx, k K) bool {
	hk := m.index.hash(k)
	n := m.index.removeTx(tx, k, hk)
	if n == nil {
		return false // O(1): key absent
	}
	n.rTime.Store(tx, &n.orec, m.rqc.onUpdate(tx))
	if m.logger != nil {
		m.logger.LogDel(tx, k)
	}
	if m.rqc.afterRemove(tx, m, n) {
		tx.OnCommit(m.counters.Local(), nil)
	}
	return true
}

// putTx is Put inside the caller's transaction: remove, then insert.
func (m *Map[K, V]) putTx(tx *stm.Tx, k K, v V) bool {
	replaced := m.removeTx(tx, k)
	m.insertTx(tx, k, v)
	return replaced
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
// (m.tail if none), in O(1) with no search when the key is present in
// the map.
func (m *Map[K, V]) ceilNodeTx(tx *stm.Tx, k K) *node[K, V] {
	if n := m.index.getTx(tx, k); n != nil {
		return n // O(1) when the key is present (Fig. 1 ceil)
	}
	c := m.seekTx(tx, k, m.nodeBefore, nil)
	for c != m.tail && c.deleted(tx) {
		c = c.next0.Load(tx, &c.orec)
	}
	return c
}

// ceilTx returns the smallest key >= k.
func (m *Map[K, V]) ceilTx(tx *stm.Tx, k K) (K, V, bool) {
	return m.liveKeyOf(m.ceilNodeTx(tx, k))
}

// succTx returns the smallest key > k. When k is present the map routes
// to its node and the successor is one link away (Fig. 1 succ).
func (m *Map[K, V]) succTx(tx *stm.Tx, k K) (K, V, bool) {
	var c *node[K, V]
	if n := m.index.getTx(tx, k); n != nil {
		c = n.next0.Load(tx, &n.orec)
	} else {
		c = m.seekTx(tx, k, m.nodeBeforeOrAt, nil)
	}
	for c != m.tail && c.deleted(tx) {
		c = c.next0.Load(tx, &c.orec)
	}
	return m.liveKeyOf(c)
}

// floorTx returns the largest key <= k.
func (m *Map[K, V]) floorTx(tx *stm.Tx, k K) (K, V, bool) {
	if n := m.index.getTx(tx, k); n != nil {
		return n.key, n.val, true
	}
	c := m.seekTx(tx, k, m.nodeBefore, nil)
	p := c.prev0.Load(tx, &c.orec)
	for p != m.head && p.deleted(tx) {
		p = p.prev0.Load(tx, &p.orec)
	}
	return m.liveKeyOf(p)
}

// predTx returns the largest key < k.
func (m *Map[K, V]) predTx(tx *stm.Tx, k K) (K, V, bool) {
	var c *node[K, V]
	if n := m.index.getTx(tx, k); n != nil {
		c = n.prev0.Load(tx, &n.orec)
	} else {
		first := m.seekTx(tx, k, m.nodeBefore, nil)
		c = first.prev0.Load(tx, &first.orec)
	}
	for c != m.head && c.deleted(tx) {
		c = c.prev0.Load(tx, &c.orec)
	}
	return m.liveKeyOf(c)
}

func (m *Map[K, V]) liveKeyOf(n *node[K, V]) (K, V, bool) {
	if n == m.head || n == m.tail {
		var zk K
		var zv V
		return zk, zv, false
	}
	return n.key, n.val, true
}
