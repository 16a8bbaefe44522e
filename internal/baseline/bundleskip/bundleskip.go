// Package bundleskip implements the evaluation's "Skip list (Bundled)"
// baseline (Nelson-Slivon et al., "Bundling Linked Data Structures for
// Linearizable Range Queries", PPoPP 2022): an optimistic lazy skip list
// (Herlihy–Shavit style, per-node locks, logical marking) whose level-0
// links carry bundles — timestamped histories of the link's past values.
// A range query draws a snapshot timestamp and dereferences each bundle
// at that timestamp, so it traverses the list exactly as it was when the
// query linearized, without restarting against updaters.
//
// An update changes what point operations see (the mark, the level-0
// pointer) and what snapshots see (the bundle entry) in separate stores,
// so it brackets them the way the paper's prepare/finalize steps do: the
// entry goes in pending, then the stamp is drawn, then the structure
// changes, then the entry receives the stamp. A range query that meets a
// pending entry waits for the stamp. Point operations that observed the
// update therefore precede only snapshots that include it, and a
// snapshot that includes it is only ever handed out once point
// operations observe it too.
//
// As with the vCAS baseline, the timestamp source selects between the
// original shared-counter clock and the rdtscp-style variant.
package bundleskip

import (
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/kv"
)

// DefaultMaxLevel matches the evaluation configuration (§5.1).
const DefaultMaxLevel = 20

// pendingTs is the stamp of a bundle entry whose update is still between
// its prepare and finalize steps.
const pendingTs = ^uint64(0)

// bundleEntry is one element of a node's level-0 link history, newest
// first. ptr is immutable and ts is written once, from pendingTs to the
// update's stamp; next is atomic so lock-free readers can race with
// pruning.
type bundleEntry struct {
	ts   atomic.Uint64
	ptr  *node
	next atomic.Pointer[bundleEntry]
}

func newEntry(ts uint64, ptr *node) *bundleEntry {
	e := &bundleEntry{ptr: ptr}
	e.ts.Store(ts)
	return e
}

// stamp returns e's timestamp, waiting out a pending update: it holds
// its locks only for a handful of stores.
func (e *bundleEntry) stamp() uint64 {
	for {
		if ts := e.ts.Load(); ts != pendingTs {
			return ts
		}
		runtime.Gosched()
	}
}

type node struct {
	key      int64
	val      int64
	sentinel int8
	topLevel int
	iTs      uint64 // insertion stamp, fixed before the node is published

	mu          sync.Mutex
	marked      atomic.Bool
	fullyLinked atomic.Bool
	next        []atomic.Pointer[node]
	bundle      atomic.Pointer[bundleEntry] // level-0 history, newest first
}

// Map is a bundled lazy skip list.
type Map struct {
	src      epoch.Source
	tracker  epoch.Tracker
	maxLevel int
	head     *node
	tail     *node
	gcOn     bool
	gcMask   uint64
}

// Config tunes the map.
type Config struct {
	// MaxLevel is the tower height (default 20).
	MaxLevel int
	// Source is the snapshot timestamp source (default HybridSource,
	// the rdtscp-style variant the paper prefers).
	Source epoch.Source
	// GCEvery prunes bundles on roughly one in GCEvery updates; 0
	// selects 16, negative disables pruning.
	GCEvery int
}

// New creates an empty map.
func New(cfg Config) *Map {
	if cfg.MaxLevel == 0 {
		cfg.MaxLevel = DefaultMaxLevel
	}
	if cfg.Source == nil {
		cfg.Source = epoch.NewHybridSource()
	}
	gcEvery := cfg.GCEvery
	if gcEvery == 0 {
		gcEvery = 16
	}
	m := &Map{src: cfg.Source, maxLevel: cfg.MaxLevel}
	if gcEvery > 0 {
		m.gcOn = true
		m.gcMask = 1<<uint(bits.Len(uint(gcEvery-1))) - 1
	}
	m.head = &node{sentinel: -1, topLevel: cfg.MaxLevel, next: make([]atomic.Pointer[node], cfg.MaxLevel)}
	m.tail = &node{sentinel: 1, topLevel: cfg.MaxLevel, next: make([]atomic.Pointer[node], cfg.MaxLevel)}
	m.head.fullyLinked.Store(true)
	m.tail.fullyLinked.Store(true)
	for l := 0; l < cfg.MaxLevel; l++ {
		m.head.next[l].Store(m.tail)
	}
	m.head.bundle.Store(newEntry(1, m.tail))
	return m
}

func (m *Map) before(n *node, k int64) bool {
	if n.sentinel != 0 {
		return n.sentinel < 0
	}
	return n.key < k
}

func (m *Map) randomHeight() int {
	h := bits.TrailingZeros64(rand.Uint64()|(1<<63)) + 1
	if h > m.maxLevel {
		h = m.maxLevel
	}
	return h
}

// find fills preds/succs and returns the highest level at which k was
// found, or -1. Pure traversal: no helping, no locking.
func (m *Map) find(k int64, preds, succs []*node) int {
	lFound := -1
	pred := m.head
	for l := m.maxLevel - 1; l >= 0; l-- {
		cur := pred.next[l].Load()
		for m.before(cur, k) {
			pred = cur
			cur = pred.next[l].Load()
		}
		if lFound == -1 && cur.sentinel == 0 && cur.key == k {
			lFound = l
		}
		preds[l] = pred
		succs[l] = cur
	}
	return lFound
}

// prepareBundle records, as a pending entry, that n's level-0 link is
// changing to ptr. Caller holds n's lock until it has finalized the
// entry; readers are lock-free.
func (m *Map) prepareBundle(n *node, ptr *node) *bundleEntry {
	e := newEntry(pendingTs, ptr)
	e.next.Store(m.bundle(n))
	n.bundle.Store(e)
	return e
}

// finalizeBundle stamps a prepared entry, releasing the snapshots
// waiting on it. Pruning keeps the newest entry at or below the oldest
// active snapshot as the boundary.
func (m *Map) finalizeBundle(e *bundleEntry, ts uint64) {
	e.ts.Store(ts)
	if m.gcOn && rand.Uint64()&m.gcMask == 0 {
		min := m.tracker.Min()
		for cur := e; cur != nil; cur = cur.next.Load() {
			if cur.ts.Load() <= min {
				cur.next.Store(nil)
				break
			}
		}
	}
}

func (m *Map) bundle(n *node) *bundleEntry { return n.bundle.Load() }

// bundleAt returns n's level-0 successor as of snapshot ts.
func (m *Map) bundleAt(n *node, ts uint64) *node {
	for e := m.bundle(n); e != nil; e = e.next.Load() {
		if e.stamp() <= ts {
			return e.ptr
		}
	}
	return nil
}

// Insert adds (k, v) if absent and reports whether it did.
func (m *Map) Insert(k, v int64) bool {
	topLevel := m.randomHeight()
	preds := make([]*node, m.maxLevel)
	succs := make([]*node, m.maxLevel)
	for {
		if lFound := m.find(k, preds, succs); lFound != -1 {
			found := succs[lFound]
			if !found.marked.Load() {
				// Wait until the winning insert finishes linking.
				for !found.fullyLinked.Load() {
					runtime.Gosched()
				}
				return false
			}
			continue // marked: wait for physical removal, then retry
		}
		highestLocked := -1
		valid := true
		var prevPred *node
		for l := 0; valid && l < topLevel; l++ {
			pred, succ := preds[l], succs[l]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = l
				prevPred = pred
			}
			valid = !pred.marked.Load() && !succ.marked.Load() && pred.next[l].Load() == succ
		}
		if !valid {
			unlockPreds(preds, highestLocked)
			continue
		}
		n := &node{key: k, val: v, topLevel: topLevel,
			next: make([]atomic.Pointer[node], topLevel)}
		for l := 0; l < topLevel; l++ {
			n.next[l].Store(succs[l])
		}
		// Prepare, stamp, publish to the current structure (pointers),
		// finalize — all under the pred locks.
		e := m.prepareBundle(preds[0], n)
		ts := m.src.Stamp()
		n.iTs = ts
		n.bundle.Store(newEntry(ts, succs[0]))
		for l := 0; l < topLevel; l++ {
			preds[l].next[l].Store(n)
		}
		n.fullyLinked.Store(true)
		m.finalizeBundle(e, ts)
		unlockPreds(preds, highestLocked)
		return true
	}
}

// Remove deletes k and reports whether this call removed it.
func (m *Map) Remove(k int64) bool {
	preds := make([]*node, m.maxLevel)
	succs := make([]*node, m.maxLevel)
	for {
		lFound := m.find(k, preds, succs)
		if lFound == -1 {
			return false
		}
		victim := succs[lFound]
		if !victim.fullyLinked.Load() || victim.topLevel != lFound+1 || victim.marked.Load() {
			return false
		}
		topLevel := victim.topLevel
		victim.mu.Lock()
		if victim.marked.Load() {
			victim.mu.Unlock()
			return false
		}
		highestLocked := -1
		valid := true
		var prevPred *node
		for l := 0; valid && l < topLevel; l++ {
			pred := preds[l]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = l
				prevPred = pred
			}
			valid = !pred.marked.Load() && pred.next[l].Load() == victim
		}
		if !valid {
			unlockPreds(preds, highestLocked)
			victim.mu.Unlock()
			continue
		}
		// The mark falls between prepare and finalize: set any earlier,
		// point operations would report the key gone while a snapshot
		// drawn after them could still hold it.
		e := m.prepareBundle(preds[0], victim.next[0].Load())
		ts := m.src.Stamp()
		victim.marked.Store(true)
		for l := topLevel - 1; l >= 0; l-- {
			preds[l].next[l].Store(victim.next[l].Load())
		}
		m.finalizeBundle(e, ts)
		victim.mu.Unlock()
		unlockPreds(preds, highestLocked)
		return true
	}
}

// Lookup returns the value for k. Wait-free: one traversal, two flag
// loads.
func (m *Map) Lookup(k int64) (int64, bool) {
	pred := m.head
	var found *node
	for l := m.maxLevel - 1; l >= 0; l-- {
		cur := pred.next[l].Load()
		for m.before(cur, k) {
			pred = cur
			cur = pred.next[l].Load()
		}
		if cur.sentinel == 0 && cur.key == k {
			found = cur
			break
		}
	}
	if found == nil || !found.fullyLinked.Load() || found.marked.Load() {
		return 0, false
	}
	return found.val, true
}

// Contains reports whether k is present.
func (m *Map) Contains(k int64) bool {
	_, ok := m.Lookup(k)
	return ok
}

// Range appends all pairs with l <= key <= r, linearized at a snapshot
// timestamp, to buf. The traversal dereferences bundles at the snapshot,
// so it sees exactly the level-0 list of that instant.
func (m *Map) Range(l, r int64, buf []kv.KV) []kv.KV {
	ts, ticket := m.tracker.Begin(m.src)
	defer m.tracker.Exit(ticket)

	preds := make([]*node, m.maxLevel)
	succs := make([]*node, m.maxLevel)
	// Find a traversal start that was already in the list at ts: a
	// currently unmarked node with key < l inserted at or before ts.
	// Unmarked-now implies alive at ts, so its bundle history at ts is
	// the state we need. The head (iTs 0) is the always-valid fallback.
	start := m.head
	m.find(l, preds, succs)
	if p := preds[0]; p.sentinel == 0 && p.iTs <= ts && !p.marked.Load() {
		start = p
	}
	cur := start
	for {
		nxt := m.bundleAt(cur, ts)
		if nxt == nil || nxt.sentinel > 0 {
			break
		}
		if nxt.key > r {
			break
		}
		if nxt.key >= l {
			buf = append(buf, kv.KV{Key: nxt.key, Val: nxt.val})
		}
		cur = nxt
	}
	return buf
}

// CheckIdle audits the quiescent structure: sorted unique keys at
// level 0 and tower consistency.
func (m *Map) CheckIdle() error {
	prevKey := int64(0)
	first := true
	for cur := m.head.next[0].Load(); cur.sentinel == 0; cur = cur.next[0].Load() {
		if cur.marked.Load() {
			return errAudit("marked node still linked at quiescence")
		}
		if !first && cur.key <= prevKey {
			return errAudit("level-0 order violation")
		}
		prevKey = cur.key
		first = false
	}
	return nil
}

type errAudit string

func (e errAudit) Error() string { return "bundleskip: " + string(e) }

func unlockPreds(preds []*node, highest int) {
	var prev *node
	for l := 0; l <= highest; l++ {
		if preds[l] != prev {
			preds[l].mu.Unlock()
			prev = preds[l]
		}
	}
}
