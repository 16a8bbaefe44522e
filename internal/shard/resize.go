package shard

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// This file is the live resharding engine. Resize(n) migrates keys
// between core.Map shards while reads and writes keep serving:
//
//   - The routing state (shard list + shift) lives in an immutable
//     route table swapped atomically; every operation pins the table it
//     routes through on a striped counter, so a swap can wait for the
//     stragglers that loaded the previous table (an RCU grace period).
//   - A migration splits the hash space into min(old, new) groups —
//     growing maps one old shard onto a run of new shards, shrinking
//     maps a run of old shards onto one new shard — each with its own
//     reader/writer gate and cutover flag, so the router sends every
//     key to exactly one authoritative shard at every instant.
//   - Per group: a write tap is armed on the sources under a drained
//     gate (from then on every committed write reports, in commit-stamp
//     order, to the group's delta log), the sources are copied through
//     bounded snapshot-chunk transactions, the delta log is drained in
//     catch-up rounds, and the final tail is replayed under the gate
//     before the group's routing flips to the destinations. Replaying
//     the whole delta in commit order converges every key to its latest
//     committed value, so no per-key stamp bookkeeping is needed.
//   - All shards live in one timestamp domain and multi-shard
//     operations hold every gate, so the migration is invisible to
//     linearizability.
//
// Sources keep their keys until the whole resize completes; retired
// shards are then closed wholesale and their counters banked.

const (
	// resizeChunk is the snapshot-chunk size of the copy phase; it
	// bounds both the consistent-read transactions on the sources and
	// (together with resizeCopyBatch) the insert transactions on the
	// destinations.
	resizeChunk = 512
	// resizeCopyBatch bounds one destination insert transaction.
	resizeCopyBatch = 128
	// resizeCutoverTail is the delta backlog below which the migrator
	// stops catch-up rounds and takes the gate: the write pause is
	// bounded by one small tail replay.
	resizeCutoverTail = 256
	// resizeMaxDrainRounds caps catch-up rounds so a write-heavy group
	// cannot postpone its cutover forever.
	resizeMaxDrainRounds = 16
)

// pinStripes is the width of each route table's pin counter. Handles
// spread over the stripes at construction, so steady-state operations
// pay two uncontended atomic adds, not one shared cacheline.
const pinStripes = 32

type pinCounter struct {
	n atomic.Int64
	_ [56]byte // pad to a cacheline so stripes never false-share
}

// route is one immutable routing state. maps holds every core.Map an
// operation may touch under this table: the steady shards, plus —
// during a migration — the destination shards being populated.
type route[K comparable, V any] struct {
	maps  []*core.Map[K, V]
	shift uint // steady routing: maps[mixed>>shift]
	// mig is non-nil while a resize is in flight; routing then goes
	// through the per-group cutover flags instead of shift.
	mig        *migration[K, V]
	steadyAuth []int // 0..len(maps)-1 when mig == nil
	pins       [pinStripes]pinCounter
}

// migration is the in-flight state of one Resize call.
type migration[K comparable, V any] struct {
	oldN, newN int
	newBase    int // maps[newBase+j] is destination shard j
	oldShift   uint
	newShift   uint
	groups     int
	groupShift uint
	// gates serialize each group's cutover against its in-flight
	// operations: every operation holds its key's group gate (multi-
	// shard operations hold all of them) in read mode for its duration.
	gates []sync.RWMutex
	done  []atomic.Bool
	// mu guards the per-group delta logs the write taps append to.
	// Appends happen inside commits (ownership records held), so each
	// log is in per-key commit order.
	mu    sync.Mutex
	delta [][]deltaOp[K, V]
	// bufs and dbufs are the per-destination buffers of the chunk
	// copier and the delta replayer (only the migrator goroutine
	// touches them).
	bufs  [][]Pair[K, V]
	dbufs [][]deltaOp[K, V]
}

type deltaOp[K comparable, V any] struct {
	del bool
	k   K
	v   V
}

// mix spreads the user hash before routing; the top bits pick shards
// and groups.
func mix(h uint64) uint64 { return h * 0x9e3779b97f4a7c15 }

func shiftFor(n int) uint { return uint(64 - bits.TrailingZeros(uint(n))) }

func newSteadyRoute[K comparable, V any](shards []*core.Map[K, V]) *route[K, V] {
	t := &route[K, V]{
		maps:       shards,
		shift:      shiftFor(len(shards)),
		steadyAuth: make([]int, len(shards)),
	}
	for i := range t.steadyAuth {
		t.steadyAuth[i] = i
	}
	return t
}

// idxFor returns the maps index of the authoritative shard for mixed.
// During a migration the caller must hold the key's group gate for the
// answer to stay authoritative while it is used.
func (t *route[K, V]) idxFor(mixed uint64) int {
	if m := t.mig; m != nil {
		if m.done[mixed>>m.groupShift].Load() {
			return m.newBase + int(mixed>>m.newShift)
		}
		return int(mixed >> m.oldShift)
	}
	return int(mixed >> t.shift)
}

func (m *migration[K, V]) groupOf(mixed uint64) int { return int(mixed >> m.groupShift) }

// destFor returns the maps index of the destination shard for mixed,
// regardless of the group's cutover state (the copy and replay paths
// always write to destinations).
func (m *migration[K, V]) destFor(mixed uint64) int {
	return m.newBase + int(mixed>>m.newShift)
}

// sourceIndices returns the maps indices of group g's source shards.
func (m *migration[K, V]) sourceIndices(g int) []int {
	per := m.oldN / m.groups
	idx := make([]int, per)
	for i := range idx {
		idx[i] = g*per + i
	}
	return idx
}

// authIndices appends the authoritative maps indices — the shard set
// that covers the key space exactly once — to buf. The caller holds
// every group gate.
func (m *migration[K, V]) authIndices(buf []int) []int {
	oldPer := m.oldN / m.groups
	newPer := m.newN / m.groups
	for g := 0; g < m.groups; g++ {
		if m.done[g].Load() {
			for j := 0; j < newPer; j++ {
				buf = append(buf, m.newBase+g*newPer+j)
			}
		} else {
			for j := 0; j < oldPer; j++ {
				buf = append(buf, g*oldPer+j)
			}
		}
	}
	return buf
}

// takeDelta swaps out group g's delta log.
func (m *migration[K, V]) takeDelta(g int) []deltaOp[K, V] {
	m.mu.Lock()
	d := m.delta[g]
	m.delta[g] = nil
	m.mu.Unlock()
	return d
}

// enter pins the current route table on the caller's stripe and returns
// it; the table cannot be retired until exit. The pin-then-recheck loop
// closes the race with a concurrent swap: if the recheck still observes
// the pinned table, the swapper's grace scan is ordered after the pin.
func (s *Sharded[K, V]) enter(stripe uint32) *route[K, V] {
	for {
		t := s.tab.Load()
		t.pins[stripe].n.Add(1)
		if s.tab.Load() == t {
			return t
		}
		t.pins[stripe].n.Add(-1)
	}
}

func (s *Sharded[K, V]) exit(t *route[K, V], stripe uint32) {
	t.pins[stripe].n.Add(-1)
}

// grace waits for every operation pinning t to finish. Transient pins
// from the enter retry loop may flicker the sum, but any operation that
// keeps its pin observed t as current before the swap.
func (s *Sharded[K, V]) grace(t *route[K, V]) {
	for {
		var total int64
		for i := range t.pins {
			total += t.pins[i].n.Load()
		}
		if total == 0 {
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// ResizeStats are cumulative live-resharding counters.
type ResizeStats struct {
	// Resizes counts completed Resize calls that changed the count.
	Resizes uint64
	// KeysCopied counts pairs copied by the snapshot-chunk handoff.
	KeysCopied uint64
	// DeltaApplied counts tapped writes replayed onto destinations.
	DeltaApplied uint64
	// Cutovers counts per-group authority flips.
	Cutovers uint64
}

// ResizeStats returns the cumulative resharding counters.
func (s *Sharded[K, V]) ResizeStats() ResizeStats {
	return ResizeStats{
		Resizes:      s.rsResizes.Load(),
		KeysCopied:   s.rsKeysCopied.Load(),
		DeltaApplied: s.rsDeltaApplied.Load(),
		Cutovers:     s.rsCutovers.Load(),
	}
}

// Resizing reports whether a resize is in flight.
func (s *Sharded[K, V]) Resizing() bool { return s.tab.Load().mig != nil }

// SetResizeObserver installs fn to receive every group cutover: the
// group index, the size of the final delta tail replayed under the
// gate, and the gate hold time (the write pause the cutover imposed).
// The embedding layer points it at a latency histogram.
func (s *Sharded[K, V]) SetResizeObserver(fn func(group, tail int, d time.Duration)) {
	s.resizeObs.Store(&fn)
}

// Resize live-migrates the map to n shards (normalized like
// Config.Shards: clamped to a power of two in [1, 256], zero derives
// from GOMAXPROCS) and returns the resulting count. Reads and writes
// keep serving throughout; each group of the hash space pauses writes
// only for its final delta-tail replay at cutover. Resize calls are
// serialized with each other and with Close; the only error is a
// resize of a closed map. A durable map needs no bookkeeping here: its
// one WAL logs every shard's writes in commit order, destinations
// included, whatever the geometry.
func (s *Sharded[K, V]) Resize(n int) (int, error) {
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	if s.closed.Load() {
		return 0, errors.New("shard: resize on closed map")
	}
	old := s.tab.Load()
	oldN := len(old.maps)
	n = normalizeShards(n)
	if n == oldN {
		return n, nil
	}

	// Phase A — build destination shards on the shared runtime, logging
	// to the map's WAL and reporting to its maintenance observer.
	per := perShardConfig(s.baseCfg, n)
	s.mu.Lock()
	maintObs := s.maintObs
	s.mu.Unlock()
	newShards := make([]*core.Map[K, V], n)
	for i := range newShards {
		m := core.NewIn[K, V](s.rt, s.less, s.hash, per)
		if s.logger != nil {
			m.AttachPersistence(s.logger)
		}
		if maintObs != nil {
			m.SetMaintenanceObserver(maintObs)
		}
		newShards[i] = m
	}

	// Install the migration table and wait out operations still routing
	// through the steady table; from here on every operation holds its
	// group gate, which is what arms the taps race-free.
	groups := oldN
	if n < groups {
		groups = n
	}
	mig := &migration[K, V]{
		oldN:       oldN,
		newN:       n,
		newBase:    oldN,
		oldShift:   old.shift,
		newShift:   shiftFor(n),
		groups:     groups,
		groupShift: shiftFor(groups),
		gates:      make([]sync.RWMutex, groups),
		done:       make([]atomic.Bool, groups),
		delta:      make([][]deltaOp[K, V], groups),
		bufs:       make([][]Pair[K, V], n),
		dbufs:      make([][]deltaOp[K, V], n),
	}
	maps := make([]*core.Map[K, V], 0, oldN+n)
	maps = append(maps, old.maps...)
	maps = append(maps, newShards...)
	migTab := &route[K, V]{maps: maps, shift: old.shift, mig: mig}
	s.tab.Store(migTab)
	s.grace(old)

	// Phase B — migrate group by group.
	for g := 0; g < groups; g++ {
		s.migrateGroup(migTab, g)
	}

	steady := newSteadyRoute(newShards)
	s.tab.Store(steady)
	s.grace(migTab)
	s.retireShards(old.maps)
	s.rsResizes.Add(1)
	return n, nil
}

// migrateGroup runs one group's tap/copy/drain/cutover sequence.
func (s *Sharded[K, V]) migrateGroup(t *route[K, V], g int) {
	m := t.mig
	srcs := m.sourceIndices(g)

	// Arm the delta taps under a drained gate: in-flight writers finish
	// before the tap is visible, and every writer admitted after the
	// gate reopens reports its commit, so chunk ∪ delta covers the
	// group with nothing in between.
	m.gates[g].Lock()
	for _, i := range srcs {
		t.maps[i].SetWriteTap(func(del bool, k K, v V, _ uint64) {
			m.mu.Lock()
			m.delta[g] = append(m.delta[g], deltaOp[K, V]{del: del, k: k, v: v})
			m.mu.Unlock()
		})
	}
	m.gates[g].Unlock()

	// Copy phase: chunked consistent reads from each source, batched
	// Put transactions into the destinations. A copied value may be
	// stale by the time it lands; the commit-ordered delta replay below
	// rewrites every key written since the tap, so the group converges.
	// SnapshotChunks fails only with its callback's error, and this one
	// never fails.
	for _, i := range srcs {
		_ = t.maps[i].SnapshotChunks(resizeChunk, func(_ uint64, pairs []Pair[K, V]) error {
			s.copyChunk(t, pairs)
			return nil
		})
	}

	// Catch-up rounds shrink the delta backlog without blocking
	// writers; the final tail is replayed under the gate so the flip to
	// the destinations is atomic with the last write landing. Rounds
	// stop as soon as the backlog is small, stops shrinking, or the cap
	// is hit — a write rate above the replay rate can never be drained
	// without the gate, so chasing it only grows the tail.
	prev := -1
	for round := 0; ; round++ {
		batch := m.takeDelta(g)
		s.applyDelta(t, batch)
		if len(batch) < resizeCutoverTail || round >= resizeMaxDrainRounds ||
			(prev >= 0 && len(batch) >= prev) {
			break
		}
		prev = len(batch)
	}
	began := time.Now()
	m.gates[g].Lock()
	tail := m.takeDelta(g)
	s.applyDelta(t, tail)
	for _, i := range srcs {
		t.maps[i].ClearWriteTap()
	}
	m.done[g].Store(true)
	m.gates[g].Unlock()
	s.rsCutovers.Add(1)
	if obs := s.resizeObs.Load(); obs != nil {
		(*obs)(g, len(tail), time.Since(began))
	}
}

// copyChunk routes one snapshot chunk's pairs into the per-destination
// buffers, flushing each as a bounded Put transaction.
func (s *Sharded[K, V]) copyChunk(t *route[K, V], pairs []Pair[K, V]) {
	m := t.mig
	for _, p := range pairs {
		j := int(mix(s.hash(p.Key)) >> m.newShift)
		m.bufs[j] = append(m.bufs[j], p)
		if len(m.bufs[j]) >= resizeCopyBatch {
			s.flushCopy(t, j)
		}
	}
	for j := range m.bufs {
		if len(m.bufs[j]) > 0 {
			s.flushCopy(t, j)
		}
	}
}

func (s *Sharded[K, V]) flushCopy(t *route[K, V], j int) {
	m := t.mig
	buf := m.bufs[j]
	_ = t.maps[m.newBase+j].Atomic(func(op *core.Txn[K, V]) error {
		for _, p := range buf {
			op.Put(p.Key, p.Val)
		}
		return nil
	})
	s.rsKeysCopied.Add(uint64(len(buf)))
	m.bufs[j] = buf[:0]
}

// applyDelta replays tapped writes onto the destinations. Ops are
// bucketed per destination and flushed as bounded transactions: a key
// always lands on the same destination, so per-destination order is
// per-key commit order, which is all convergence needs.
func (s *Sharded[K, V]) applyDelta(t *route[K, V], ops []deltaOp[K, V]) {
	m := t.mig
	for _, op := range ops {
		j := int(mix(s.hash(op.k)) >> m.newShift)
		m.dbufs[j] = append(m.dbufs[j], op)
		if len(m.dbufs[j]) >= resizeCopyBatch {
			s.flushDelta(t, j)
		}
	}
	for j := range m.dbufs {
		if len(m.dbufs[j]) > 0 {
			s.flushDelta(t, j)
		}
	}
	s.rsDeltaApplied.Add(uint64(len(ops)))
}

func (s *Sharded[K, V]) flushDelta(t *route[K, V], j int) {
	m := t.mig
	buf := m.dbufs[j]
	_ = t.maps[m.newBase+j].Atomic(func(op *core.Txn[K, V]) error {
		for _, d := range buf {
			if d.del {
				op.Remove(d.k)
			} else {
				op.Put(d.k, d.v)
			}
		}
		return nil
	})
	m.dbufs[j] = buf[:0]
}

// retireShards closes resized-away shards and banks their counters into
// the retired accumulators, so stats never go backwards across a
// resize.
func (s *Sharded[K, V]) retireShards(old []*core.Map[K, V]) {
	for _, m := range old {
		m.Close()
	}
	s.mu.Lock()
	for _, m := range old {
		rs := m.RangeStats()
		s.retiredRange.FastAttempts += rs.FastAttempts
		s.retiredRange.FastAborts += rs.FastAborts
		s.retiredRange.FastCommits += rs.FastCommits
		s.retiredRange.SlowCommits += rs.SlowCommits
		s.retiredMaint = s.retiredMaint.Add(m.MaintenanceStats())
	}
	s.mu.Unlock()
}
