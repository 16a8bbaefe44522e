package core

import "repro/internal/stm"

// reclaimBatch bounds how many nodes one after_range drain transaction
// unstitches. Small enough to stay conflict-resistant against concurrent
// elemental operations (an unstitch writes the node's neighbors at every
// level), large enough to amortize per-transaction overhead.
const reclaimBatch = 32

// MaintenanceStats counts reclamation work. DrainedNodes counts every
// node unstitched after its removal: at the removing transaction's
// commit, or later by the after_range of the oldest slow-path range
// query that deferred it. DrainBatches counts the after_range drain
// transactions alone.
type MaintenanceStats struct {
	DrainedNodes uint64
	DrainBatches uint64
}

// MaintenanceStats sums the map's reclamation counters.
func (m *Map[K, V]) MaintenanceStats() MaintenanceStats {
	var s MaintenanceStats
	cells := m.counters.Cells()
	for i := range cells {
		s.DrainedNodes += cells[i].drainedNodes.Load()
		s.DrainBatches += cells[i].drainBatches.Load()
	}
	return s
}

// reclaimBatches unstitches the nodes after_range collected from the
// oldest in-flight query, in transactions of at most reclaimBatch nodes:
// chunked, rather than the paper's one transaction per node, so a query
// that accumulated a long deferred list does not pay a full
// transaction's begin/commit for every node, while each chunk stays
// small enough to be conflict-resistant. No remaining query can need
// these nodes, so none is deferred again.
func (m *Map[K, V]) reclaimBatches(nodes []*node[K, V]) {
	for len(nodes) > 0 {
		chunk := nodes[:min(len(nodes), reclaimBatch)]
		_ = m.rt.Atomic(func(tx *stm.Tx) error {
			for _, n := range chunk {
				m.unstitchTx(tx, n)
			}
			return nil
		})
		c := m.counters.Local()
		c.drainedNodes.Add(uint64(len(chunk)))
		c.drainBatches.Add(1)
		nodes = nodes[len(chunk):]
	}
}
