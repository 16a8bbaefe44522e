// Bug-injection self-test: the checker is only trustworthy if it
// actually rejects non-linearizable behavior, so this file drives the
// real recording harness (maptest.RecordHistory) against deliberately
// broken map shims — weakened insert validation, stale reads, stale
// range snapshots, non-atomic batches — and requires a rejection for
// each, plus an acceptance for the correct control implementation.
package linearize_test

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/kv"
	"repro/internal/linearize"
	"repro/internal/maptest"
)

// lockedMap is the correct control: a mutex around a Go map. Everything
// it does is trivially linearizable.
type lockedMap struct {
	mu sync.Mutex
	m  map[int64]int64
}

func newLockedMap() *lockedMap { return &lockedMap{m: make(map[int64]int64)} }

func (l *lockedMap) Lookup(k int64) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.m[k]
	return v, ok
}

func (l *lockedMap) Insert(k, v int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.m[k]; ok {
		return false
	}
	l.m[k] = v
	return true
}

func (l *lockedMap) Remove(k int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.m[k]; !ok {
		return false
	}
	delete(l.m, k)
	return true
}

func (l *lockedMap) Range(lo, hi int64, buf []maptest.KV) []maptest.KV {
	l.mu.Lock()
	defer l.mu.Unlock()
	return rangeOf(l.m, lo, hi, buf)
}

func rangeOf(m map[int64]int64, lo, hi int64, buf []maptest.KV) []maptest.KV {
	for k, v := range m {
		if k >= lo && k <= hi {
			buf = append(buf, kv.KV{Key: k, Val: v})
		}
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i].Key < buf[j].Key })
	return buf
}

func (l *lockedMap) Batch(steps []linearize.Step) {
	l.mu.Lock()
	defer l.mu.Unlock()
	applyStepsTo(l.m, steps)
}

// applyStepsTo applies batch steps to m in place, filling outputs.
func applyStepsTo(m map[int64]int64, steps []linearize.Step) {
	linearize.ApplySteps(steps,
		func(k, v int64) bool {
			if _, ok := m[k]; ok {
				return false
			}
			m[k] = v
			return true
		},
		func(k int64) bool {
			_, ok := m[k]
			delete(m, k)
			return ok
		},
		func(k int64) (int64, bool) {
			v, ok := m[k]
			return v, ok
		})
}

// dupInsertMap weakens insert's presence validation — the analog of a
// commit that skips re-validating its read set: Insert reports success
// even when the key is already present.
type dupInsertMap struct{ lockedMap }

func (d *dupInsertMap) Insert(k, v int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[k] = v
	return true
}

// staleShim maintains a snapshot that lags the live state by one write,
// the analog of a reader admitting a version older than its start time.
type staleShim struct {
	mu  sync.Mutex
	cur map[int64]int64
	old map[int64]int64
}

func newStaleShim() *staleShim {
	return &staleShim{cur: make(map[int64]int64), old: make(map[int64]int64)}
}

func (s *staleShim) snapshot() {
	s.old = make(map[int64]int64, len(s.cur))
	for k, v := range s.cur {
		s.old[k] = v
	}
}

func (s *staleShim) Insert(k, v int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshot()
	if _, ok := s.cur[k]; ok {
		return false
	}
	s.cur[k] = v
	return true
}

func (s *staleShim) Remove(k int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshot()
	if _, ok := s.cur[k]; !ok {
		return false
	}
	delete(s.cur, k)
	return true
}

// staleReadMap serves Lookup from the lagging snapshot.
type staleReadMap struct{ *staleShim }

func (s staleReadMap) Lookup(k int64) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.old[k]
	return v, ok
}

func (s staleReadMap) Range(lo, hi int64, buf []maptest.KV) []maptest.KV {
	s.mu.Lock()
	defer s.mu.Unlock()
	return rangeOf(s.cur, lo, hi, buf)
}

// staleRangeMap answers Lookup correctly but serves Range from the
// lagging snapshot — a non-atomic range traversal in miniature.
type staleRangeMap struct{ *staleShim }

func (s staleRangeMap) Lookup(k int64) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.cur[k]
	return v, ok
}

func (s staleRangeMap) Range(lo, hi int64, buf []maptest.KV) []maptest.KV {
	s.mu.Lock()
	defer s.mu.Unlock()
	return rangeOf(s.old, lo, hi, buf)
}

// partialBatchMap claims to apply a whole batch but actually applies
// only its first step — lost atomicity.
type partialBatchMap struct{ lockedMap }

func (p *partialBatchMap) Batch(steps []linearize.Step) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Claimed outputs: as if the whole batch ran.
	scratch := make(map[int64]int64, len(p.m))
	for k, v := range p.m {
		scratch[k] = v
	}
	applyStepsTo(scratch, steps)
	// Actual effect: first step only.
	if len(steps) > 0 {
		first := []linearize.Step{steps[0]}
		applyStepsTo(p.m, first)
	}
}

// record drives the standard harness workload over m. A single client
// keeps the history sequential, so every shim's misbehavior surfaces
// deterministically from the seed.
func record(m maptest.OrderedMap, o maptest.WorkloadOptions) []linearize.Op {
	return maptest.RecordHistory(m, o)
}

func TestCheckerAcceptsCorrectMap(t *testing.T) {
	for _, clients := range []int{1, 4} {
		h := record(newLockedMap(), maptest.WorkloadOptions{
			Clients: clients, OpsPerClient: 200, Universe: 8, Seed: 11,
			Ranges: true, Batches: true,
		})
		if res := linearize.Check(h); !res.Ok {
			t.Fatalf("correct map rejected (%d clients):\n%s", clients, linearize.FormatOps(res.Ops))
		}
	}
}

func TestCheckerRejectsBrokenShims(t *testing.T) {
	shims := []struct {
		name string
		mk   func() maptest.OrderedMap
		opts maptest.WorkloadOptions
	}{
		{
			name: "weakened insert validation",
			mk:   func() maptest.OrderedMap { return &dupInsertMap{lockedMap{m: make(map[int64]int64)}} },
			opts: maptest.WorkloadOptions{Clients: 1, OpsPerClient: 100, Universe: 4, Seed: 1},
		},
		{
			name: "stale reads",
			mk:   func() maptest.OrderedMap { return staleReadMap{newStaleShim()} },
			opts: maptest.WorkloadOptions{Clients: 1, OpsPerClient: 100, Universe: 4, Seed: 1},
		},
		{
			name: "stale range snapshots",
			mk:   func() maptest.OrderedMap { return staleRangeMap{newStaleShim()} },
			opts: maptest.WorkloadOptions{Clients: 1, OpsPerClient: 120, Universe: 4, Seed: 1, Ranges: true},
		},
		{
			name: "non-atomic batches",
			mk:   func() maptest.OrderedMap { return &partialBatchMap{lockedMap{m: make(map[int64]int64)}} },
			opts: maptest.WorkloadOptions{Clients: 1, OpsPerClient: 150, Universe: 4, Seed: 1, Batches: true},
		},
	}
	for _, tc := range shims {
		t.Run(tc.name, func(t *testing.T) {
			h := record(tc.mk(), tc.opts)
			res := linearize.Check(h)
			if res.Ok || res.Unknown {
				t.Fatalf("checker failed to reject %s (ok=%v unknown=%v, %d ops)",
					tc.name, res.Ok, res.Unknown, len(h))
			}
		})
	}
}
