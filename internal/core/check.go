package core

import (
	"fmt"
)

// CheckOptions tunes the invariant audit.
type CheckOptions struct {
	// AllowDeleted permits logically deleted nodes to remain stitched
	// (true while slow-path range queries are in flight and may hold
	// them on their deferred lists; false on any map with none).
	AllowDeleted bool
}

// CheckInvariants audits the composition without transactional
// protection; the map must be quiescent. It verifies:
//
//   - the skip list is sorted at every level, with equal keys only among
//     logically deleted nodes ordered before their live replacement;
//   - prev/next links mirror each other at every level, each upper level
//     is an ordered sub-chain of level 0, and a node is linked on exactly
//     the levels below its height: head and tail span MaxLevel levels and
//     every other node between 1 and MaxLevel;
//   - the hash index and the set of logically present skip list nodes
//     are identical (the paper's central invariant: "the hash map always
//     reflects the current logical state"), and every indexed node hangs
//     from the bucket its key hashes to, on exactly one chain;
//   - insertion times never exceed removal times on deleted nodes;
//   - every in-flight slow-path range query's deferred list runs from its
//     head cell to its tail cell, and names logically deleted nodes that
//     are still stitched at level 0, each on exactly one list.
func (m *Map[K, V]) CheckInvariants(opts CheckOptions) error {
	maxLevel := m.cfg.MaxLevel
	if m.head.height() != maxLevel || m.tail.height() != maxLevel {
		return fmt.Errorf("head and tail have heights %d and %d, want MaxLevel %d",
			m.head.height(), m.tail.height(), maxLevel)
	}
	// Collect the level-0 chain: each node's position, and in taller[l]
	// the number of nodes whose height exceeds l, which is how many nodes
	// level l must link.
	live := make(map[K]*node[K, V])
	pos := make(map[*node[K, V]]int)
	taller := make([]int, maxLevel)
	var prev *node[K, V] = m.head
	for cur := m.head.next0.Raw(); ; cur = cur.next0.Raw() {
		if cur == nil {
			return fmt.Errorf("level 0: nil link")
		}
		if back := cur.prev0.Raw(); back != prev {
			return fmt.Errorf("level 0: prev link of %v broken", cur.key)
		}
		if cur == m.tail {
			break
		}
		if cur == m.head {
			return fmt.Errorf("level 0: head reachable mid-chain")
		}
		if h := cur.height(); h < 1 || h > maxLevel {
			return fmt.Errorf("node %v has height %d, outside [1, %d]", cur.key, h, maxLevel)
		}
		pos[cur] = len(pos)
		for l := 1; l < cur.height(); l++ {
			taller[l]++
		}
		deleted := cur.rTime.Raw() != rTimeNone
		if deleted && !opts.AllowDeleted {
			return fmt.Errorf("deleted node %v still stitched", cur.key)
		}
		if deleted && cur.rTime.Raw() < cur.iTime() {
			return fmt.Errorf("node %v removed at %d before inserted at %d",
				cur.key, cur.rTime.Raw(), cur.iTime())
		}
		if prev != m.head {
			switch {
			case m.less(prev.key, cur.key):
				// strictly ascending: fine
			case m.less(cur.key, prev.key):
				return fmt.Errorf("level 0: order violation %v > %v", prev.key, cur.key)
			default:
				// Equal keys: every node but the last among equals must
				// be logically deleted (§4.2).
				if prev.rTime.Raw() == rTimeNone {
					return fmt.Errorf("duplicate live key %v", prev.key)
				}
			}
		}
		if !deleted {
			if _, dup := live[cur.key]; dup {
				return fmt.Errorf("two live nodes for key %v", cur.key)
			}
			live[cur.key] = cur
		}
		prev = cur
	}
	// The RQC's deferred lists, oldest query first. A node repeated
	// anywhere (which any cycle would do) fails the exactly-one-list test,
	// so the walk terminates.
	onList := make(map[*node[K, V]]bool)
	for op := m.rqc.opsHead.Raw(); op != nil; op = op.next.Raw() {
		tail := op.defTail.Raw()
		if tail != nil && tail.next.Raw() != nil {
			return fmt.Errorf("rqc: query %d: deferred tail cell has a successor", op.ver)
		}
		var last *deferred[K, V]
		for c := op.defHead.Raw(); c != nil; c = c.next.Raw() {
			n := c.n
			switch _, stitched := pos[n]; {
			case onList[n]:
				return fmt.Errorf("rqc: query %d: node %v is on more than one deferred list position", op.ver, n.key)
			case !stitched:
				return fmt.Errorf("rqc: query %d: deferred node %v is not stitched at level 0", op.ver, n.key)
			case n.rTime.Raw() == rTimeNone:
				return fmt.Errorf("rqc: query %d: deferred node %v is logically present", op.ver, n.key)
			}
			onList[n] = true
			last = c
		}
		if last != tail {
			return fmt.Errorf("rqc: query %d: deferred tail cell is not the last cell of its list", op.ver)
		}
	}
	// Upper levels must be sub-chains of level 0, in its order, with
	// mirrored links, and must link every node tall enough. A node's
	// height is checked before any of its links on the level is read:
	// a level at or above it lies outside the node's object.
	for l := 1; l < maxLevel; l++ {
		prev = m.head
		linked, last := 0, -1
		for cur := m.head.nextAt(l).Raw(); ; cur = cur.nextAt(l).Raw() {
			if cur == nil {
				return fmt.Errorf("level %d: nil link", l)
			}
			if cur != m.head && cur != m.tail {
				p, ok := pos[cur]
				switch {
				case !ok:
					return fmt.Errorf("level %d: node %v missing from level 0", l, cur.key)
				case cur.height() <= l:
					return fmt.Errorf("level %d: node %v of height %d present", l, cur.key, cur.height())
				case p <= last:
					return fmt.Errorf("level %d: node %v out of level-0 order", l, cur.key)
				}
				last = p
			}
			if back := cur.prevAt(l).Raw(); back != prev {
				return fmt.Errorf("level %d: prev link of %v broken", l, cur.key)
			}
			if cur == m.tail {
				break
			}
			if cur == m.head {
				return fmt.Errorf("level %d: head reachable mid-chain", l)
			}
			linked++
			prev = cur
		}
		if linked != taller[l] {
			return fmt.Errorf("level %d links %d nodes, but %d nodes are taller than %d", l, linked, taller[l], l)
		}
	}
	// The hash index must match the live set exactly, and its chains,
	// being threaded through the nodes, must be well formed: every node
	// hangs from the bucket its key hashes to, from that chain only, and
	// is logically present.
	indexed := 0
	var indexErr error
	chained := make(map[*node[K, V]]bool, len(live))
	m.index.forEachSlow(func(bucket int, n *node[K, V]) bool {
		indexed++
		k := n.key
		switch ln, ok := live[k]; {
		case chained[n]:
			indexErr = fmt.Errorf("index: node %v sits on more than one chain position", k)
		case m.index.bucketFor(k) != &m.index.buckets[bucket]:
			indexErr = fmt.Errorf("index: node %v hangs from bucket %d, not the one its key hashes to", k, bucket)
		case n.rTime.Raw() != rTimeNone:
			indexErr = fmt.Errorf("index: node %v is logically deleted but still indexed", k)
		case !ok:
			indexErr = fmt.Errorf("index maps %v to a node that is not live in the list", k)
		case ln != n:
			indexErr = fmt.Errorf("index maps %v to a stale node", k)
		}
		chained[n] = true
		return indexErr == nil
	})
	if indexErr != nil {
		return indexErr
	}
	if indexed != len(live) {
		return fmt.Errorf("index has %d entries but list has %d live nodes", indexed, len(live))
	}
	return nil
}

// SizeSlow counts logically present nodes without transactional
// protection; the map must be quiescent.
func (m *Map[K, V]) SizeSlow() int {
	n := 0
	for cur := m.head.next0.Raw(); cur != m.tail; cur = cur.next0.Raw() {
		if cur.rTime.Raw() == rTimeNone {
			n++
		}
	}
	return n
}

// StitchedSlow counts all stitched nodes including logically deleted
// ones; with SizeSlow it measures deferred-reclamation backlog in tests.
func (m *Map[K, V]) StitchedSlow() int {
	n := 0
	for cur := m.head.next0.Raw(); cur != m.tail; cur = cur.next0.Raw() {
		n++
	}
	return n
}
