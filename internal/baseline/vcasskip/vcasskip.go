// Package vcasskip implements the evaluation's "Skip list (vCAS)"
// baseline: a lock-free skip list in the Harris/Fraser/Herlihy-Shavit
// style whose links are versioned-CAS objects (Wei et al. [50]), so
// range queries read a constant-time snapshot instead of coordinating
// with updaters. The timestamp source selects between the original
// shared-counter camera and the rdtscp-style variant of Grimes et
// al. [23] (see package epoch).
//
// Every level's links are versioned. A node is logically deleted by
// marking its own next links (top down, bottom last — the bottom mark is
// the linearization point); searches physically unlink marked nodes as
// they pass. A range query takes a snapshot timestamp and navigates the
// version of the list current at that timestamp: a node is in the
// result iff it is reachable through timestamp-t links and its own
// bottom link was unmarked at t.
package vcasskip

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/epoch"
	"repro/internal/kv"
	"repro/internal/vcas"
)

// DefaultMaxLevel matches the evaluation configuration (§5.1).
const DefaultMaxLevel = 20

// Edge is the value stored in each versioned link: the successor and the
// logical-deletion mark of the link's owner.
type Edge struct {
	Succ   *Node
	Marked bool
}

// Node is a skip list node. Key and value are immutable; all mutable
// state lives in the versioned links.
type Node struct {
	Key      int64
	Val      int64
	sentinel int8
	next     []vcas.VPointer[Edge]
}

func (n *Node) height() int { return len(n.next) }

// Map is a lock-free ordered map with vCAS snapshots.
type Map struct {
	src      epoch.Source
	tracker  epoch.Tracker
	maxLevel int
	head     *Node
	tail     *Node
	gcOn     bool
	gcMask   uint64
}

// Config tunes the map.
type Config struct {
	// MaxLevel is the tower height (default 20).
	MaxLevel int
	// Source is the snapshot timestamp source (default: hwclock-style
	// HybridSource, the paper's preferred rdtscp variant).
	Source epoch.Source
	// GCEvery prunes version lists on roughly one in GCEvery successful
	// link updates; 0 selects 16, negative disables pruning.
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
	m := &Map{
		src:      cfg.Source,
		maxLevel: cfg.MaxLevel,
	}
	if gcEvery > 0 {
		// Round to a power of two for cheap masking.
		m.gcOn = true
		m.gcMask = 1<<uint(bits.Len(uint(gcEvery-1))) - 1
	}
	m.head = &Node{sentinel: -1, next: make([]vcas.VPointer[Edge], cfg.MaxLevel)}
	m.tail = &Node{sentinel: 1, next: make([]vcas.VPointer[Edge], cfg.MaxLevel)}
	for l := 0; l < cfg.MaxLevel; l++ {
		m.head.next[l].Init(Edge{Succ: m.tail})
		m.tail.next[l].Init(Edge{})
	}
	return m
}

// before reports whether n orders strictly before key k.
func (m *Map) before(n *Node, k int64) bool {
	if n.sentinel != 0 {
		return n.sentinel < 0
	}
	return n.Key < k
}

func (m *Map) randomHeight() int {
	h := bits.TrailingZeros64(rand.Uint64()|(1<<63)) + 1
	if h > m.maxLevel {
		h = m.maxLevel
	}
	return h
}

// maybePrune occasionally trims a link's version list down to the oldest
// version any active snapshot can still need.
func (m *Map) maybePrune(p *vcas.VPointer[Edge]) {
	if !m.gcOn || rand.Uint64()&m.gcMask != 0 {
		return
	}
	p.Prune(m.src, m.tracker.Min())
}

// find locates k, filling preds/succs per level and physically unlinking
// marked nodes along the way (Harris-style helping). It reports whether
// an unmarked node with key k was found at the bottom level.
func (m *Map) find(k int64, preds, succs []*Node) bool {
retry:
	pred := m.head
	for level := m.maxLevel - 1; level >= 0; level-- {
		cur := pred.next[level].Read(m.src).Succ
		for {
			succEdge := cur.next[level].Read(m.src)
			for succEdge.Marked {
				// cur is logically deleted: unlink it at this level.
				if !pred.next[level].CompareAndSwap(m.src, Edge{Succ: cur}, Edge{Succ: succEdge.Succ}) {
					goto retry
				}
				m.maybePrune(&pred.next[level])
				cur = succEdge.Succ
				succEdge = cur.next[level].Read(m.src)
			}
			if m.before(cur, k) {
				pred = cur
				cur = succEdge.Succ
				continue
			}
			break
		}
		preds[level] = pred
		succs[level] = cur
	}
	return succs[0].sentinel == 0 && succs[0].Key == k
}

// Insert adds (k, v) if absent and reports whether it did. The
// linearization point of a successful insert is the bottom-level CAS.
func (m *Map) Insert(k, v int64) bool {
	preds := make([]*Node, m.maxLevel)
	succs := make([]*Node, m.maxLevel)
	for {
		if m.find(k, preds, succs) {
			return false
		}
		height := m.randomHeight()
		n := &Node{Key: k, Val: v, next: make([]vcas.VPointer[Edge], height)}
		for l := 0; l < height; l++ {
			n.next[l].Init(Edge{Succ: succs[l]})
		}
		if !preds[0].next[0].CompareAndSwap(m.src, Edge{Succ: succs[0]}, Edge{Succ: n}) {
			continue // bottom link changed under us; retry from scratch
		}
		m.maybePrune(&preds[0].next[0])
		// Best-effort upper-level linking: abandoned if the node is
		// deleted concurrently; index completeness is a performance
		// matter only.
		for l := 1; l < height; l++ {
			for {
				if preds[l].next[l].CompareAndSwap(m.src, Edge{Succ: succs[l]}, Edge{Succ: n}) {
					m.maybePrune(&preds[l].next[l])
					break
				}
				if n.next[0].Read(m.src).Marked {
					return true
				}
				m.find(k, preds, succs)
				if succs[0] != n {
					return true // deleted (and possibly replaced)
				}
				// Refresh our forward pointer at this level.
				old := n.next[l].Read(m.src)
				if old.Marked {
					return true
				}
				if old.Succ != succs[l] &&
					!n.next[l].CompareAndSwap(m.src, old, Edge{Succ: succs[l]}) {
					if n.next[l].Read(m.src).Marked {
						return true
					}
				}
			}
		}
		return true
	}
}

// Remove deletes k and reports whether this call removed it. The
// linearization point is the successful bottom-level mark.
func (m *Map) Remove(k int64) bool {
	preds := make([]*Node, m.maxLevel)
	succs := make([]*Node, m.maxLevel)
	if !m.find(k, preds, succs) {
		return false
	}
	n := succs[0]
	// Mark upper levels top-down.
	for l := n.height() - 1; l >= 1; l-- {
		e := n.next[l].Read(m.src)
		for !e.Marked {
			n.next[l].CompareAndSwap(m.src, e, Edge{Succ: e.Succ, Marked: true})
			e = n.next[l].Read(m.src)
		}
	}
	// Bottom-level mark decides the winner among racing removers.
	for {
		e := n.next[0].Read(m.src)
		if e.Marked {
			return false
		}
		if n.next[0].CompareAndSwap(m.src, e, Edge{Succ: e.Succ, Marked: true}) {
			m.find(k, preds, succs) // physically unlink via helping
			return true
		}
	}
}

// Lookup returns the value for k. It is read-only (no helping).
func (m *Map) Lookup(k int64) (int64, bool) {
	pred := m.head
	for level := m.maxLevel - 1; level >= 0; level-- {
		cur := pred.next[level].Read(m.src).Succ
		for {
			e := cur.next[level].Read(m.src)
			if e.Marked {
				cur = e.Succ // skip deleted node without unlinking
				continue
			}
			if m.before(cur, k) {
				pred = cur
				cur = e.Succ
				continue
			}
			break
		}
		if cur.sentinel == 0 && cur.Key == k {
			return cur.Val, true
		}
	}
	return 0, false
}

// Contains reports whether k is present.
func (m *Map) Contains(k int64) bool {
	_, ok := m.Lookup(k)
	return ok
}

// Range appends all pairs with l <= key <= r, at a single snapshot
// timestamp, to buf. This is the vCAS payoff: the query never restarts
// and never blocks updaters; it simply reads timestamp-t versions.
func (m *Map) Range(l, r int64, buf []kv.KV) []kv.KV {
	ts, ticket := m.tracker.Begin(m.src)
	defer m.tracker.Exit(ticket)

	// Versioned descent to the rightmost node before l as of ts. Every
	// node reached is reachable at ts by induction from the head.
	pred := m.head
	for level := m.maxLevel - 1; level >= 0; level-- {
		for {
			e, ok := pred.next[level].ReadVersion(m.src, ts)
			if !ok {
				break
			}
			cur := e.Succ
			if cur == nil || !m.before(cur, l) {
				break
			}
			pred = cur
		}
	}
	// Bottom-level scan at ts.
	cur := pred
	for {
		e, ok := cur.next[0].ReadVersion(m.src, ts)
		if !ok || e.Succ == nil {
			break
		}
		n := e.Succ
		if n.sentinel > 0 || n.Key > r {
			break
		}
		if n.Key >= l {
			// n is reachable at ts; it is a member iff its own bottom
			// link was unmarked at ts.
			if ne, ok2 := n.next[0].ReadVersion(m.src, ts); ok2 && !ne.Marked {
				buf = append(buf, kv.KV{Key: n.Key, Val: n.Val})
			}
		}
		cur = n
	}
	return buf
}

// CheckIdle audits the quiescent structure: bottom level sorted and
// unmarked-reachable nodes unique.
func (m *Map) CheckIdle() error {
	last := int64(0)
	first := true
	cur := m.head.next[0].Read(m.src).Succ
	for cur.sentinel == 0 {
		e := cur.next[0].Read(m.src)
		if !e.Marked {
			if !first && cur.Key <= last {
				return errOrder{prev: last, cur: cur.Key}
			}
			last = cur.Key
			first = false
		}
		cur = e.Succ
	}
	return nil
}

type errOrder struct{ prev, cur int64 }

func (e errOrder) Error() string { return "vcasskip: order violation" }
