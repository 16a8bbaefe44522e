package shard

import (
	"iter"
)

// mergeSeqs k-way merges sorted, pairwise-disjoint per-shard sequences
// into one sequence ordered by before. Each inner sequence is pulled
// lazily, so early termination by the consumer stops the per-shard
// iterators after at most one buffered chunk each.
func mergeSeqs[K comparable, V any](seqs []iter.Seq2[K, V], before func(a, b K) bool) iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		nexts := make([]func() (K, V, bool), len(seqs))
		keys := make([]K, len(seqs))
		vals := make([]V, len(seqs))
		live := make([]bool, len(seqs))
		for i, seq := range seqs {
			next, stop := iter.Pull2(seq)
			defer stop()
			nexts[i] = next
			keys[i], vals[i], live[i] = next()
		}
		for {
			best := -1
			for i := range keys {
				if live[i] && (best < 0 || before(keys[i], keys[best])) {
					best = i
				}
			}
			if best < 0 {
				return
			}
			if !yield(keys[best], vals[best]) {
				return
			}
			keys[best], vals[best], live[best] = nexts[best]()
		}
	}
}

// All returns an iterator over every pair in ascending key order, k-way
// merged from per-shard iterators. Each shard's stream is weakly
// consistent (assembled from chunked transactions, like core.Map.All),
// and the merged stream inherits that contract: it is sorted and
// duplicate-free — the shards partition the key space — but concurrent
// updates may be observed mid-iteration or missed.
func (s *Sharded[K, V]) All() iter.Seq2[K, V] {
	seqs := make([]iter.Seq2[K, V], len(s.maps))
	for i, m := range s.maps {
		seqs[i] = m.All()
	}
	return mergeSeqs(seqs, s.less)
}

// Backward returns a weakly consistent iterator over every pair in
// descending key order; see All for the consistency contract.
func (s *Sharded[K, V]) Backward() iter.Seq2[K, V] {
	seqs := make([]iter.Seq2[K, V], len(s.maps))
	for i, m := range s.maps {
		seqs[i] = m.Backward()
	}
	return mergeSeqs(seqs, func(a, b K) bool { return s.less(b, a) })
}

// AscendFrom visits pairs with key >= from in ascending order until fn
// returns false; see All for the consistency contract.
func (s *Sharded[K, V]) AscendFrom(from K, fn func(k K, v V) bool) {
	seqs := make([]iter.Seq2[K, V], len(s.maps))
	for i, m := range s.maps {
		seqs[i] = func(yield func(K, V) bool) { m.AscendFrom(from, yield) }
	}
	mergeSeqs(seqs, s.less)(fn)
}

// DescendFrom visits pairs with key <= from in descending order until
// fn returns false; see All for the consistency contract.
func (s *Sharded[K, V]) DescendFrom(from K, fn func(k K, v V) bool) {
	seqs := make([]iter.Seq2[K, V], len(s.maps))
	for i, m := range s.maps {
		seqs[i] = func(yield func(K, V) bool) { m.DescendFrom(from, yield) }
	}
	mergeSeqs(seqs, func(a, b K) bool { return s.less(b, a) })(fn)
}
