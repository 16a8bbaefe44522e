// Package core implements the skip hash: the paper's primary
// contribution. A transactional closed-addressing hash map routes keys to
// the nodes of a transactional doubly linked skip list, giving O(1)
// expected complexity for every elemental operation except successful
// insertion and absent-key point queries (Figure 1). Range queries run on
// a fast path (one transaction) with a slow-path fallback coordinated by
// the range query coordinator (Figures 3 and 4).
package core

import (
	"repro/internal/stm"
)

// rTimeNone marks a node as logically present (the paper's r_time =
// None). Version numbers produced by the RQC counter are far below this
// sentinel for any feasible execution.
const rTimeNone = ^uint64(0)

// node is the paper's sl_node augmented with the §4.2 logical-deletion
// fields and with the hash index's chain link. The node's own orec guards
// its skip list state (links, r_time, the deferred chain link); hnext
// alone is guarded by the orec of the index bucket the node hangs from
// (see index). key, val, height and i_time are immutable once the node is
// published, which is the "const field" optimization modern STMs reward.
//
// The declaration order is the memory layout, and it is deliberate:
// everything a point read or a level-0 walk touches — the orec, the
// level-0 links, the hash link, r_time, key, value and the sentinel tag —
// comes first, so for word-sized keys and values a bucket probe's
// key-compare-then-follow-hnext and a range scan's step each stay inside
// the node's first cache line (node_layout_test.go guards the offsets).
// The cold tail holds what only slow-path range queries and reclamation
// read (i_time, dnext) and the tower slice header.
//
// A node is one heap object: levels >= 1 exist only on the minority of
// nodes a tower descent visits, and for heights 2..4 the tower array is
// allocated in the same object as the node (the nodeN shapes below, with
// up slicing the object's own array), so 15 nodes in 16 cost a single
// allocation; only taller towers, 1 node in 16, take a second one for
// their slice. A height-1 node (half of all nodes) carries no tower at
// all.
type node[K comparable, V any] struct {
	orec stm.Orec

	// next0/prev0 are the level-0 list links, inlined so the walks that
	// dominate every workload (range scans, iteration) never chase a
	// slice header off the node's first line.
	next0 stm.Ptr[node[K, V]]
	prev0 stm.Ptr[node[K, V]]

	// hnext chains the node into its hash index bucket. It is guarded by
	// that bucket's orec, not by the node's.
	hnext stm.Ptr[node[K, V]]

	// rTime is rTimeNone while the node is logically present; a removal
	// stamps it with the most recent range query's version.
	rTime stm.U64

	key      K
	val      V
	sentinel int8 // 0 interior, -1 head, +1 tail

	// iTime is the version of the last slow-path range query that began
	// before this node's insertion (§4.2). It is written inside the
	// inserting transaction, before the node becomes reachable.
	iTime uint64

	// up holds the tower links for levels 1..height-1; nil for height-1
	// nodes. up[l-1] is level l.
	up []tower[K, V]

	// dnext chains the node into an RQC deferred-removal list.
	dnext stm.Ptr[node[K, V]]
}

// tower is one level of a node's upper links, paired so each level's
// next/prev share a cache line slot instead of living in parallel slices.
type tower[K comparable, V any] struct {
	next stm.Ptr[node[K, V]]
	prev stm.Ptr[node[K, V]]
}

func (n *node[K, V]) height() int { return 1 + len(n.up) }

// nextAt returns the level-l forward link. Level 0 is inlined in the
// node; the bounds check on up is the only cost of the split.
func (n *node[K, V]) nextAt(l int) *stm.Ptr[node[K, V]] {
	if l == 0 {
		return &n.next0
	}
	return &n.up[l-1].next
}

// prevAt returns the level-l backward link.
func (n *node[K, V]) prevAt(l int) *stm.Ptr[node[K, V]] {
	if l == 0 {
		return &n.prev0
	}
	return &n.up[l-1].prev
}

// node2, node3 and node4 are a node co-allocated with a tower of height
// 2, 3 and 4. The node comes first, so a pointer to it is a pointer to
// the whole object and keeps the tower alive.
type node2[K comparable, V any] struct {
	node[K, V]
	t [1]tower[K, V]
}

type node3[K comparable, V any] struct {
	node[K, V]
	t [2]tower[K, V]
}

type node4[K comparable, V any] struct {
	node[K, V]
	t [3]tower[K, V]
}

func newNode[K comparable, V any](height int) *node[K, V] {
	var n *node[K, V]
	switch height {
	case 1:
		n = &node[K, V]{}
	case 2:
		s := &node2[K, V]{}
		n, s.up = &s.node, s.t[:]
	case 3:
		s := &node3[K, V]{}
		n, s.up = &s.node, s.t[:]
	case 4:
		s := &node4[K, V]{}
		n, s.up = &s.node, s.t[:]
	default:
		n = &node[K, V]{up: make([]tower[K, V], height-1)}
	}
	n.rTime.Init(rTimeNone)
	return n
}

// deleted reports whether the node is logically deleted, reading rTime
// transactionally.
func (n *node[K, V]) deleted(tx *stm.Tx) bool {
	return n.rTime.Load(tx, &n.orec) != rTimeNone
}

// Pair is a key/value pair produced by range queries.
type Pair[K comparable, V any] struct {
	Key K
	Val V
}
