package core

import (
	"iter"
)

// LoadSorted bulk-builds the map from pairs, whose keys must be strictly
// ascending, without a transaction: the pre-publication constructor
// recovery uses, where every pair is known, unique and complete before
// any reader can see the map. The map must be empty and never yet
// shared with another goroutine; a key out of order or a non-empty map
// is a programming error and panics.
//
// Each pair becomes one fresh node of a randomly drawn height, appended
// behind the current tail of every level it spans and pushed onto its
// bucket chain, all with plain Init stores; the last node of each level
// is linked to the tail sentinel once, at the end. A loaded node
// therefore looks exactly like one an insert committed before any range
// query ran: rTime none, iTime 0 (the range query coordinator's counter
// on a map that has not run one), and its orec at version 0, which every
// later read validates.
// Nodes are allocated in key order (BenchmarkRange100Loaded measures
// what that placement is worth to a range scan).
func (m *Map[K, V]) LoadSorted(pairs iter.Seq2[K, V]) {
	if m.head.next0.Raw() != m.tail {
		panic("core: LoadSorted on a non-empty map")
	}
	tails := make([]*node[K, V], m.cfg.MaxLevel)
	for l := range tails {
		tails[l] = m.head
	}
	for k, v := range pairs {
		if last := tails[0]; last != m.head && !m.less(last.key, k) {
			panic("core: LoadSorted keys are not strictly ascending")
		}
		n := newNode[K, V](m.randomHeight())
		n.key = k
		n.val = v
		for l := 0; l < n.height(); l++ {
			n.prevAt(l).Init(tails[l])
			tails[l].nextAt(l).Init(n)
			tails[l] = n
		}
		b := m.index.bucketFor(k)
		n.hnext.Init(b.head.Raw())
		b.head.Init(n)
	}
	for l, p := range tails {
		p.nextAt(l).Init(m.tail)
		m.tail.prevAt(l).Init(p)
	}
}
