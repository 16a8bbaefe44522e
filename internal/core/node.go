// Package core implements the skip hash: the paper's primary
// contribution. A transactional closed-addressing hash map routes keys to
// the nodes of a transactional doubly linked skip list, giving O(1)
// expected complexity for every elemental operation except successful
// insertion and absent-key point queries (Figure 1). Range queries run on
// a fast path (one transaction) with a slow-path fallback coordinated by
// the range query coordinator (Figures 3 and 4). A removal reclaims its
// own node, as Figure 4's after_remove does: the removing transaction
// unstitches it, or defers it to the newest in-flight slow-path range
// query, which unstitches it when no older query can need it.
//
// Map is the repository's one map type (skiphash.Map names it): it is not
// partitioned, every operation is a method of it that keeps no state
// between calls, and it owns the durability lifecycle
// (AttachPersistence, Close, Snapshot, Sync).
//
// Two paths run outside the STM and validate afterwards. Point reads
// probe the hash index raw and revalidate the bucket's orec (getFast).
// Every skip list search descends the tower raw (descend) and reads in
// its transaction only the pairs of nodes it splices between or starts
// from, checking that each is still adjacent around the key; a failed
// check or Config.DisableReadFastPath runs the transactional descent
// (findPreds) instead.
package core

import (
	"unsafe"

	"repro/internal/persist"
	"repro/internal/stm"
)

// rTimeNone marks a node as logically present (the paper's r_time =
// None). Version numbers produced by the RQC counter are far below this
// sentinel for any feasible execution.
const rTimeNone = ^uint64(0)

// maxHeight is the tallest node newNode can build, and so the largest
// Config.MaxLevel: the head and tail are MaxLevel tall, and randomHeight
// draws at most 32 levels from a 64-bit word.
const maxHeight = 64

// heightBits is how many low bits of node.meta hold the height (up to
// maxHeight); the insertion time takes the rest.
const (
	heightBits = 7
	heightMask = 1<<heightBits - 1
)

// maxITime is the largest insertion time node.meta can hold, and so the
// largest version the RQC counter may reach (rqc.onRange refuses to pass
// it): 2^57-1 slow-path range queries.
const maxITime = ^uint64(0) >> heightBits

// node is the paper's sl_node augmented with the §4.2 logical-deletion
// fields and with the hash index's chain link. The node's own orec guards
// its skip list state (links, r_time, the deferred-list links of the RQC
// cells that name it); hnext alone is guarded by the orec of the index
// bucket the node hangs from (see index). key, val, height and i_time are
// immutable once the node is published, which is the "const field"
// optimization modern STMs reward.
//
// The node is one cache line: for word-sized keys and values the header
// is exactly 64 bytes, and a 64-byte object starts on a line boundary
// (its size class divides the span into line-aligned slots), so a bucket
// probe's key-compare-then-follow-hnext, a descent's key compare and a
// range scan's step each touch one line per node. An 80-byte header,
// which carried a head/tail tag and the deferred-list link, would sit in
// the 80-byte size class, whose slots start at multiples of 80: four in
// five headers would straddle two lines. Head and tail are therefore
// recognised by identity (m.head, m.tail), and an RQC deferral allocates
// a small cell (see deferred) instead of reserving a link in every node.
// The declaration order is the memory layout (node_layout_test.go guards
// it), with the orec first: the fast path samples it before anything else.
//
// A node is one heap object at every height: the tower links for levels
// 1..height-1 are allocated directly behind this header, in the same
// object (one of the shape instantiations newNode picks), and upper
// finds them by address arithmetic. A height-1 node (three in four at
// randomHeight's p = 1/4) is the bare header, 64 bytes for word-sized
// keys and values.
type node[K comparable, V any] struct {
	orec stm.Orec

	// next0/prev0 are the level-0 list links, inlined so the walks that
	// dominate every workload (range scans, iteration) stay on the node's
	// line.
	next0 stm.Ptr[node[K, V]]
	prev0 stm.Ptr[node[K, V]]

	// hnext chains the node into its hash index bucket. It is guarded by
	// that bucket's orec, not by the node's.
	hnext stm.Ptr[node[K, V]]

	// rTime is rTimeNone while the node is logically present; a removal
	// stamps it with the most recent range query's version.
	rTime stm.U64

	key K
	val V

	// meta packs the node's height (low heightBits bits) and its
	// insertion time i_time above them: the version of the last
	// slow-path range query that began before this node's insertion
	// (§4.2). Both are written before the node becomes reachable.
	meta uint64
}

// tower is one level of a node's upper links, paired so each level's
// next/prev share a cache line slot instead of living in parallel arrays.
type tower[K comparable, V any] struct {
	next stm.Ptr[node[K, V]]
	prev stm.Ptr[node[K, V]]
}

func (n *node[K, V]) height() int { return int(n.meta & heightMask) }

// iTime returns the node's insertion time (§4.2's i_time).
func (n *node[K, V]) iTime() uint64 { return n.meta >> heightBits }

// setITime records the insertion time t <= maxITime, keeping the height;
// the inserting transaction calls it before publishing the node.
func (n *node[K, V]) setITime(t uint64) {
	n.meta = t<<heightBits | n.meta&heightMask
}

// upper returns the tower links of level l, 1 <= l < height. They sit
// behind the header in the node's own object, so no header is loaded and
// no bounds are checked; a level at or above the height is outside the
// object, which the callers' loops over height() never reach.
func (n *node[K, V]) upper(l int) *tower[K, V] {
	return (*tower[K, V])(unsafe.Add(unsafe.Pointer(n),
		unsafe.Sizeof(*n)+uintptr(l-1)*unsafe.Sizeof(tower[K, V]{})))
}

// nextAt returns the level-l forward link.
func (n *node[K, V]) nextAt(l int) *stm.Ptr[node[K, V]] {
	if l == 0 {
		return &n.next0
	}
	return &n.upper(l).next
}

// prevAt returns the level-l backward link.
func (n *node[K, V]) prevAt(l int) *stm.Ptr[node[K, V]] {
	if l == 0 {
		return &n.prev0
	}
	return &n.upper(l).prev
}

// shape is a node with a tower array A = [c]tower[K, V] allocated behind
// it. The node comes first, so a pointer to it is a pointer to the whole
// object: it keeps the tower alive and upper's offsets start at
// unsafe.Sizeof(node).
type shape[K comparable, V any, A any] struct {
	node[K, V]
	t A
}

// alloc allocates a shape and returns its node and tower levels.
func alloc[K comparable, V any, A any]() (*node[K, V], int) {
	s := new(shape[K, V, A])
	return &s.node, int(unsafe.Sizeof(s.t) / unsafe.Sizeof(tower[K, V]{}))
}

// towerLevels is the number of tower levels newNode allocates behind a
// node of height h: exactly h-1 up to height 8, then rounded up to 11,
// 15, 23, 31 or 63, so the 1 node in 256 taller than 8 takes one of five
// shapes.
func towerLevels(h int) int {
	switch {
	case h <= 8:
		return h - 1
	case h <= 12:
		return 11
	case h <= 16:
		return 15
	case h <= 24:
		return 23
	case h <= 32:
		return 31
	}
	return maxHeight - 1
}

// newNode allocates a node of the given height, 1..maxHeight, as one
// object. The tower levels the shape really holds are checked against
// the height, so a case below that allocates the wrong array panics here
// instead of letting upper write past the object.
func newNode[K comparable, V any](height int) *node[K, V] {
	if height < 1 || height > maxHeight {
		panic("core: node height out of range")
	}
	var n *node[K, V]
	levels := 0
	switch towerLevels(height) {
	case 0:
		n = new(node[K, V])
	case 1:
		n, levels = alloc[K, V, [1]tower[K, V]]()
	case 2:
		n, levels = alloc[K, V, [2]tower[K, V]]()
	case 3:
		n, levels = alloc[K, V, [3]tower[K, V]]()
	case 4:
		n, levels = alloc[K, V, [4]tower[K, V]]()
	case 5:
		n, levels = alloc[K, V, [5]tower[K, V]]()
	case 6:
		n, levels = alloc[K, V, [6]tower[K, V]]()
	case 7:
		n, levels = alloc[K, V, [7]tower[K, V]]()
	case 11:
		n, levels = alloc[K, V, [11]tower[K, V]]()
	case 15:
		n, levels = alloc[K, V, [15]tower[K, V]]()
	case 23:
		n, levels = alloc[K, V, [23]tower[K, V]]()
	case 31:
		n, levels = alloc[K, V, [31]tower[K, V]]()
	case maxHeight - 1:
		n, levels = alloc[K, V, [maxHeight - 1]tower[K, V]]()
	}
	if levels < height-1 {
		panic("core: node shape too short for its height")
	}
	n.meta = uint64(height)
	n.rTime.Init(rTimeNone)
	return n
}

// deleted reports whether the node is logically deleted, reading rTime
// transactionally.
func (n *node[K, V]) deleted(tx *stm.Tx) bool {
	return n.rTime.Load(tx, &n.orec) != rTimeNone
}

// Pair is a key/value pair produced by range queries and snapshot
// chunks: persist's pair, so a chunk goes to the snapshot encoder as it
// is.
type Pair[K comparable, V any] = persist.KV[K, V]
