// Package vcasbst implements the evaluation's "BST (vCAS)" baseline: the
// non-blocking leaf-oriented binary search tree of Ellen, Fatourou,
// Ruppert and van Breugel (PODC 2010) with its child pointers replaced by
// versioned-CAS objects (Wei et al. [50]), so range queries read an
// in-order snapshot of the leaves at a single timestamp.
//
// Keys live only in leaves; internal nodes route: left subtree strictly
// below the routing key, right subtree at or above it. Updates coordinate
// through per-internal-node update records (IFlag/DFlag/Mark/Clean) with
// helping, exactly as in the original algorithm; only the child-pointer
// CASes are versioned, because they are what snapshots traverse.
package vcasbst

import (
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/kv"
	"repro/internal/vcas"
)

// rank orders the two infinity sentinels above every real key.
const (
	rankReal int8 = 0
	rankInf1 int8 = 1
	rankInf2 int8 = 2
)

type state uint8

const (
	clean state = iota
	iflag
	dflag
	mark
)

// update is the coordination word of an internal node. A specific
// *update pointer doubles as the CAS version.
type update struct {
	state state
	info  any // *iInfo (iflag) or *dInfo (dflag, mark); nil when clean
}

var cleanUpdate = &update{state: clean}

// iInfo describes a pending insertion. lVer is the version handle of
// the child slot holding l at search time: the ichild CAS targets that
// exact version, making it immune to the sibling-promotion ABA (a
// deleted leaf's sibling can become its grandparent's child again,
// restoring the old pointer value but never the old version object).
type iInfo struct {
	p           *tnode
	l           *tnode
	lVer        *vcas.Version[*tnode]
	newInternal *tnode
	flagUpd     *update // the IFlag record installed on p
}

// dInfo describes a pending deletion. pVer is the version handle of the
// grandparent's child slot holding p at search time; see iInfo.lVer.
type dInfo struct {
	gp, p   *tnode
	pVer    *vcas.Version[*tnode]
	l       *tnode
	pUpdate *update // p's update word observed at search time
	flagUpd *update // the DFlag record installed on gp
}

// tnode is either an internal router (leaf false) or a leaf.
type tnode struct {
	key  int64
	rank int8
	leaf bool
	val  int64 // leaves only

	// internal only:
	left, right vcas.VPointer[*tnode]
	upd         atomic.Pointer[update]
}

// Map is a non-blocking external BST with vCAS snapshots.
type Map struct {
	src     epoch.Source
	tracker epoch.Tracker
	root    *tnode
}

// Config tunes the map.
type Config struct {
	// Source is the snapshot timestamp source (default HybridSource).
	Source epoch.Source
}

// New creates an empty map: a sentinel root keyed at infinity-2 whose
// children are the two dummy leaves, so every real leaf sits at depth at
// least two and deletions always have a grandparent.
func New(cfg Config) *Map {
	if cfg.Source == nil {
		cfg.Source = epoch.NewHybridSource()
	}
	m := &Map{src: cfg.Source}
	m.root = &tnode{rank: rankInf2}
	m.root.upd.Store(cleanUpdate)
	m.root.left.Init(&tnode{rank: rankInf1, leaf: true})
	m.root.right.Init(&tnode{rank: rankInf2, leaf: true})
	return m
}

// keyBelow reports whether real key k routes left of internal node n.
func keyBelow(k int64, n *tnode) bool {
	if n.rank != rankReal {
		return true // every real key is below the sentinels
	}
	return k < n.key
}

// leafLess orders leaves by (rank, key).
func leafLess(a, b *tnode) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.key < b.key
}

// search descends to the leaf for k, recording the parent, grandparent,
// their update words (read before the respective child pointers, as the
// original algorithm requires), and the version handles of the last two
// child slots traversed.
func (m *Map) search(k int64) (gp, p, l *tnode, gpUpd, pUpd *update, pVer, lVer *vcas.Version[*tnode]) {
	l = m.root
	for !l.leaf {
		gp, p = p, l
		gpUpd = pUpd
		pUpd = p.upd.Load()
		pVer = lVer
		if keyBelow(k, p) {
			l, lVer = p.left.ReadVersioned(m.src)
		} else {
			l, lVer = p.right.ReadVersioned(m.src)
		}
	}
	return gp, p, l, gpUpd, pUpd, pVer, lVer
}

// Lookup returns the value for k.
func (m *Map) Lookup(k int64) (int64, bool) {
	n := m.root
	for !n.leaf {
		if keyBelow(k, n) {
			n = n.left.Read(m.src)
		} else {
			n = n.right.Read(m.src)
		}
	}
	if n.rank == rankReal && n.key == k {
		return n.val, true
	}
	return 0, false
}

// Contains reports whether k is present.
func (m *Map) Contains(k int64) bool {
	_, ok := m.Lookup(k)
	return ok
}

// Insert adds (k, v) if absent and reports whether it did.
func (m *Map) Insert(k, v int64) bool {
	for {
		_, p, l, _, pUpd, _, lVer := m.search(k)
		if l.rank == rankReal && l.key == k {
			return false
		}
		if pUpd.state != clean {
			m.help(pUpd)
			continue
		}
		newLeaf := &tnode{key: k, rank: rankReal, leaf: true, val: v}
		ni := m.newInternal(l, newLeaf)
		op := &iInfo{p: p, l: l, lVer: lVer, newInternal: ni}
		op.flagUpd = &update{state: iflag, info: op}
		if p.upd.CompareAndSwap(pUpd, op.flagUpd) {
			m.helpInsert(op)
			return true
		}
		m.help(p.upd.Load())
	}
}

// newInternal builds the replacement subtree for an insertion: an
// internal node routing between the old leaf and the new one.
func (m *Map) newInternal(oldLeaf, newLeaf *tnode) *tnode {
	small, large := newLeaf, oldLeaf
	if leafLess(oldLeaf, newLeaf) {
		small, large = oldLeaf, newLeaf
	}
	ni := &tnode{key: large.key, rank: large.rank}
	ni.upd.Store(cleanUpdate)
	ni.left.Init(small)
	ni.right.Init(large)
	return ni
}

func (m *Map) helpInsert(op *iInfo) {
	m.casChild(op.p, op.lVer, op.newInternal)
	op.p.upd.CompareAndSwap(op.flagUpd, &update{state: clean, info: op})
}

// Remove deletes k and reports whether this call removed it.
func (m *Map) Remove(k int64) bool {
	for {
		gp, p, l, gpUpd, pUpd, pVer, _ := m.search(k)
		if !(l.rank == rankReal && l.key == k) {
			return false
		}
		if gpUpd.state != clean {
			m.help(gpUpd)
			continue
		}
		if pUpd.state != clean {
			m.help(pUpd)
			continue
		}
		op := &dInfo{gp: gp, p: p, pVer: pVer, l: l, pUpdate: pUpd}
		op.flagUpd = &update{state: dflag, info: op}
		if gp.upd.CompareAndSwap(gpUpd, op.flagUpd) {
			if m.helpDelete(op) {
				return true
			}
			continue
		}
		m.help(gp.upd.Load())
	}
}

// helpDelete tries to complete a flagged deletion: mark the parent, then
// splice the sibling up. It reports whether the deletion went through
// (false means the DFlag was backed out and the caller must retry).
func (m *Map) helpDelete(op *dInfo) bool {
	markUpd := &update{state: mark, info: op}
	for {
		if op.p.upd.CompareAndSwap(op.pUpdate, markUpd) {
			break
		}
		cur := op.p.upd.Load()
		if cur.state == mark {
			if di, ok := cur.info.(*dInfo); ok && di == op {
				break // someone else marked for this same operation
			}
		}
		// The parent changed under us: back out the DFlag.
		m.help(cur)
		op.gp.upd.CompareAndSwap(op.flagUpd, &update{state: clean, info: op})
		return false
	}
	m.helpMarked(op)
	return true
}

// helpMarked splices the deleted leaf's sibling into the grandparent and
// clears the DFlag.
func (m *Map) helpMarked(op *dInfo) {
	// p is marked: its children are frozen, so the sibling read is
	// stable.
	sibling := op.p.left.Read(m.src)
	if sibling == op.l {
		sibling = op.p.right.Read(m.src)
	}
	m.casChild(op.gp, op.pVer, sibling)
	op.gp.upd.CompareAndSwap(op.flagUpd, &update{state: clean, info: op})
}

// casChild replaces the child version oldVer with new under parent,
// whichever side holds that exact version. Version-handle identity makes
// the helping race-idempotent and ABA-immune: exactly one helper's CAS
// can succeed, and a stale helper whose operation completed long ago can
// never fire again even if the slot's value has cycled back.
func (m *Map) casChild(parent *tnode, oldVer *vcas.Version[*tnode], new *tnode) {
	if parent.left.CompareAndSwapVersion(m.src, oldVer, new) {
		return
	}
	parent.right.CompareAndSwapVersion(m.src, oldVer, new)
}

// help advances whatever operation owns the given update word.
func (m *Map) help(u *update) {
	switch u.state {
	case iflag:
		m.helpInsert(u.info.(*iInfo))
	case dflag:
		m.helpDelete(u.info.(*dInfo))
	case mark:
		m.helpMarked(u.info.(*dInfo))
	case clean:
	}
}

// Range appends all pairs with l <= key <= r, linearized at a snapshot
// timestamp, to buf: an in-order walk over the version of the tree
// current at that timestamp, pruned to the query window.
func (m *Map) Range(l, r int64, buf []kv.KV) []kv.KV {
	ts, ticket := m.tracker.Begin(m.src)
	defer m.tracker.Exit(ticket)
	return m.rangeAt(m.root, ts, l, r, buf)
}

func (m *Map) rangeAt(n *tnode, ts uint64, l, r int64, buf []kv.KV) []kv.KV {
	if n == nil {
		return buf
	}
	if n.leaf {
		if n.rank == rankReal && n.key >= l && n.key <= r {
			buf = append(buf, kv.KV{Key: n.key, Val: n.val})
		}
		return buf
	}
	// Left subtree holds keys < n.key (sentinel-ranked routers hold all
	// real keys on the left).
	if n.rank != rankReal || l < n.key {
		if c, ok := n.left.ReadVersion(m.src, ts); ok {
			buf = m.rangeAt(c, ts, l, r, buf)
		}
	}
	if n.rank != rankReal || r >= n.key {
		if c, ok := n.right.ReadVersion(m.src, ts); ok {
			buf = m.rangeAt(c, ts, l, r, buf)
		}
	}
	return buf
}

// CheckIdle audits the quiescent tree: leaf keys strictly ascending
// in-order and routing invariants respected.
func (m *Map) CheckIdle() error {
	var last *tnode
	var walk func(n *tnode) error
	walk = func(n *tnode) error {
		if n.leaf {
			if last != nil && !leafLess(last, n) {
				return errAudit("in-order leaves not ascending")
			}
			last = n
			return nil
		}
		lc := n.left.Read(m.src)
		rc := n.right.Read(m.src)
		if lc == nil || rc == nil {
			return errAudit("internal node with missing child")
		}
		if err := walk(lc); err != nil {
			return err
		}
		return walk(rc)
	}
	return walk(m.root)
}

type errAudit string

func (e errAudit) Error() string { return "vcasbst: " + string(e) }
