package core

import (
	"sync/atomic"

	"repro/internal/stm"
)

// This file is the handle-lifecycle reclamation subsystem. The paper's
// §4.5 removal buffer defers physical unstitching for speed but assumes
// every buffer is eventually flushed by its owning handle; a handle that
// goes away (worker exit, pooled handle dropped by GC) would strand its
// buffered nodes stitched forever, degrading exactly the range-query
// path the design optimizes. The subsystem closes that hole:
//
//   - every removal buffer that loses its owner is handed to the map's
//     orphan queue (Handle.Close, Handle.Recycle, the pooled
//     convenience paths, Quiesce);
//   - the operation that pushes the queue to its threshold adopts it and
//     unstitches the nodes in bounded transactional batches, deferring
//     to the RQC when a slow-path range query is in flight, exactly like
//     a handle flush; Quiesce and Close drain whatever is left.
//
// No goroutine is involved: reclamation runs on the callers' own.

// reclaimBatch bounds how many nodes one drain transaction unstitches.
// Small enough to stay conflict-resistant against concurrent elemental
// operations (an unstitch writes the node's neighbors at every level),
// large enough to amortize per-transaction overhead; it also chunks the
// RQC's after_range reclamation.
const reclaimBatch = 32

// orphanDrainThreshold is the queue length at which the orphaning
// operation drains the queue inline. It keeps the stitched-but-deleted
// backlog bounded without Quiesce or Close.
const orphanDrainThreshold = 4 * reclaimBatch

// MaintenanceStats counts the reclamation subsystem's work. Orphaned and
// Adopted track the orphan queue (nodes in, nodes out); DrainedNodes and
// DrainBatches cover every batched drain — orphan adoptions, handle
// buffer flushes, and the RQC's after_range reclamation alike.
type MaintenanceStats struct {
	Orphaned     uint64
	Adopted      uint64
	DrainedNodes uint64
	DrainBatches uint64
}

// Add returns the element-wise sum s + o (for cross-shard aggregation).
func (s MaintenanceStats) Add(o MaintenanceStats) MaintenanceStats {
	return MaintenanceStats{
		Orphaned:     s.Orphaned + o.Orphaned,
		Adopted:      s.Adopted + o.Adopted,
		DrainedNodes: s.DrainedNodes + o.DrainedNodes,
		DrainBatches: s.DrainBatches + o.DrainBatches,
	}
}

// maintCounters is MaintenanceStats with atomic fields.
type maintCounters struct {
	orphaned     atomic.Uint64
	adopted      atomic.Uint64
	drainedNodes atomic.Uint64
	drainBatches atomic.Uint64
}

// MaintenanceStats returns a snapshot of the map's reclamation counters.
func (m *Map[K, V]) MaintenanceStats() MaintenanceStats {
	return MaintenanceStats{
		Orphaned:     m.maintStats.orphaned.Load(),
		Adopted:      m.maintStats.adopted.Load(),
		DrainedNodes: m.maintStats.drainedNodes.Load(),
		DrainBatches: m.maintStats.drainBatches.Load(),
	}
}

// OrphanBacklog returns the current orphan queue length (nodes awaiting
// adoption; a live probe for tests and monitoring).
func (m *Map[K, V]) OrphanBacklog() int {
	m.orphanMu.Lock()
	defer m.orphanMu.Unlock()
	return len(m.orphans)
}

// orphanNodes appends nodes to the orphan queue and, once the queue
// reaches its threshold (or always after Close, when no later Quiesce
// is due), drains it inline on the caller's goroutine.
func (m *Map[K, V]) orphanNodes(nodes []*node[K, V]) {
	if len(nodes) == 0 {
		return
	}
	m.orphanMu.Lock()
	m.orphans = append(m.orphans, nodes...)
	pending := len(m.orphans)
	m.orphanMu.Unlock()
	m.maintStats.orphaned.Add(uint64(len(nodes)))
	if pending >= orphanDrainThreshold || m.closed.Load() {
		m.adoptOrphans()
	}
}

// orphanNode is orphanNodes for a single straggler (a removal committed
// against an already-closed handle).
func (m *Map[K, V]) orphanNode(n *node[K, V]) {
	m.orphanNodes([]*node[K, V]{n})
}

// adoptOrphans takes ownership of the entire orphan queue and drains it
// in bounded batches. Adoption is serialized by adoptMu — held across
// the drain, not just the queue swap — so that when Quiesce (or Close)
// calls adoptOrphans it also waits out any inline drain another caller
// has in flight: on return, every node that was orphaned before the
// call is off the level-0 chain (or on an in-flight range query's
// deferred list, which owns it from there). Returns how many nodes this
// call adopted.
func (m *Map[K, V]) adoptOrphans() int {
	m.adoptMu.Lock()
	defer m.adoptMu.Unlock()
	m.orphanMu.Lock()
	take := m.orphans
	m.orphans = nil
	m.orphanMu.Unlock()
	if len(take) == 0 {
		return 0
	}
	m.maintStats.adopted.Add(uint64(len(take)))
	m.drainNodes(take)
	return len(take)
}

// drainNodes reclaims a batch of logically deleted nodes in chunked
// transactions of at most reclaimBatch each: when no slow-path range
// query is in flight the chunk is unstitched directly; otherwise the
// chunk is spliced onto the most recent query's deferred list (§4.5) and
// the RQC guarantees eventual unstitching. This replaces the
// one-transaction-per-node loop the handle flush used to run.
func (m *Map[K, V]) drainNodes(nodes []*node[K, V]) {
	m.reclaimBatches(nodes, true)
}

// reclaimBatches is the one chunked-drain loop every reclamation path —
// handle flushes, orphan adoption, the RQC's after_range — funnels
// through. consultTail selects whether each chunk defers to an in-flight
// slow-path range query (false only for after_range's oldest-query
// nodes, which no remaining query can need).
func (m *Map[K, V]) reclaimBatches(nodes []*node[K, V], consultTail bool) {
	for len(nodes) > 0 {
		chunk := nodes
		if len(chunk) > reclaimBatch {
			chunk = nodes[:reclaimBatch]
		}
		_ = m.rt.Atomic(func(tx *stm.Tx) error {
			if consultTail {
				if tail := m.rqc.tailOp(tx); tail != nil {
					for _, n := range chunk {
						m.rqc.appendDeferred(tx, tail, n)
					}
					return nil
				}
			}
			for _, n := range chunk {
				m.unstitchTx(tx, n)
			}
			return nil
		})
		m.maintStats.drainedNodes.Add(uint64(len(chunk)))
		m.maintStats.drainBatches.Add(1)
		nodes = nodes[len(chunk):]
	}
}
