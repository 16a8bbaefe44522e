package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"sync"

	"repro/skiphash"
)

// The -crash stress: one durability directory lives through many
// kill/recover cycles while an in-memory shadow model tracks what must
// survive. Two cycle flavors alternate:
//
//   - "always": FsyncAlways with concurrent workers on partitioned
//     keys, killed (SimulateCrash — the user-space buffer is dropped,
//     nothing further is fsynced) after a random number of operations.
//     Every acknowledged operation is durable by contract, so the
//     recovered map must equal the shadow exactly. Zero tolerance.
//   - "torn": FsyncNone with a single writer, killed with a torn WAL
//     tail (SimulateTornCrash cuts a random number of bytes, possibly
//     mid-record). The single writer makes the log a strict journal, so
//     the recovered state must equal the shadow after some prefix of
//     the cycle's operations — and at least the prefix covered by the
//     cycle's one explicit Sync. Anything else is divergence.
//
// Every few cycles a mid-cycle Snapshot exercises truncation under
// load, and every sixth "always" cycle ends in a clean Close instead
// of a kill, so flush-on-Close recovery is audited on the same
// directory as the crash paths.
type shadowCell struct {
	v  int64
	ok bool
}

// crashRun is one -crash run's state: the directory, the shadow of what
// must survive, and the seeded RNG every cycle draws from.
type crashRun struct {
	dir      string
	shadow   []shadowCell
	universe int64
	threads  int
	rng      *rand.Rand
}

// runCrash runs the -crash stress in dir (a fresh temporary directory
// when empty) and returns the first divergence or failure.
func runCrash(cycles, threads int, universe int64, seed uint64, dir string) error {
	if cycles < 1 {
		cycles = 1
	}
	if threads < 1 {
		threads = 1
	}
	if universe > 1<<10 {
		universe = 1 << 10 // keep the per-op journal copies cheap; depth comes from cycles
	}
	if int64(threads) > universe {
		threads = int(universe) // every worker needs a nonempty key partition
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "skipstress-crash-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	fmt.Printf("skipstress: -crash, %d cycles, %d threads, universe %d, seed %d, dir %s\n",
		cycles, threads, universe, seed, dir)

	c := &crashRun{
		dir:      dir,
		shadow:   make([]shadowCell, universe),
		universe: universe,
		threads:  threads,
		rng:      rand.New(rand.NewPCG(seed, 0xdead)),
	}
	totalOps := 0
	for cycle := 0; cycle < cycles; cycle++ {
		ops, err := c.cycle(cycle)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		totalOps += ops
	}

	// Final clean reopen.
	m, err := c.open(skiphash.Durability{Dir: dir})
	if err != nil {
		return fmt.Errorf("final recovery: %w", err)
	}
	defer m.Close()
	if err := auditEqual(m, c.shadow); err != nil {
		return fmt.Errorf("final recovery: %w", err)
	}
	fmt.Printf("cycles=%d ops=%d\n", cycles, totalOps)
	fmt.Println("skipstress: PASS")
	return nil
}

// open opens the directory with durability d.
func (c *crashRun) open(d skiphash.Durability) (*skiphash.Map[int64, int64], error) {
	cfg := skiphash.Config{Durability: &d}
	return skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
}

// cycle runs one kill/recover cycle: open, audit the recovery against
// the shadow, run the cycle's flavor, close.
func (c *crashRun) cycle(cycle int) (int, error) {
	torn := cycle%2 == 1
	fsync := skiphash.FsyncAlways
	if torn {
		fsync = skiphash.FsyncNone
	}
	m, err := c.open(skiphash.Durability{
		Dir:           c.dir,
		Fsync:         fsync,
		SegmentBytes:  1 << 16,
		SnapshotBytes: -1, // snapshots only where the stress places them
	})
	if err != nil {
		return 0, err
	}
	defer m.Close()
	// Entry audit: recovery must reproduce the shadow exactly (every
	// previous cycle ended at a point the shadow reflects).
	if err := auditEqual(m, c.shadow); err != nil {
		return 0, fmt.Errorf("entry audit: %w", err)
	}
	if torn {
		return c.tornCycle(m, cycle)
	}
	clean := cycle%6 == 4 // this cycle ends in Close, not a kill
	return c.alwaysCycle(m, cycle, clean)
}

// auditEqual compares the recovered map against the shadow cell by
// cell.
func auditEqual(m *skiphash.Map[int64, int64], shadow []shadowCell) error {
	for k := range shadow {
		v, ok := m.Lookup(int64(k))
		if ok != shadow[k].ok || (ok && v != shadow[k].v) {
			return fmt.Errorf("key %d: recovered (%d,%v), shadow (%d,%v)", k, v, ok, shadow[k].v, shadow[k].ok)
		}
	}
	return nil
}

// alwaysCycle runs concurrent workers on partitioned keys (worker w
// owns keys ≡ w mod threads, so each shadow cell has one writer) and
// kills the store after a random operation budget — or, when clean is
// set, leaves the kill out so the caller's Close performs a clean
// flush-and-shutdown. FsyncAlways means an operation that returned is
// durable; workers stop at an operation boundary, so either way the
// recovered state must equal the shadow exactly.
func (c *crashRun) alwaysCycle(m *skiphash.Map[int64, int64], cycle int, clean bool) (int, error) {
	shadow, universe, threads, rng := c.shadow, c.universe, c.threads, c.rng
	opsPerWorker := 100 + int(rng.Uint64()%400)
	snapshotAt := -1
	if rng.Uint64()%4 == 0 {
		snapshotAt = rng.IntN(opsPerWorker)
	}
	var snapErr error // written by worker 0 only, read after the join
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int, wseed uint64) {
			defer wg.Done()
			wrng := rand.New(rand.NewPCG(wseed, uint64(w)))
			for i := 0; i < opsPerWorker; i++ {
				k := (int64(wrng.Uint64()%uint64(universe))/int64(threads))*int64(threads) + int64(w)
				if k >= universe {
					k -= int64(threads)
				}
				if w == 0 && i == snapshotAt {
					snapErr = m.Snapshot()
				}
				v := int64(cycle*1_000_000 + i)
				if wrng.Uint64()&1 == 0 {
					if m.Insert(k, v) {
						shadow[k] = shadowCell{v: v, ok: true}
					}
				} else {
					if m.Remove(k) {
						shadow[k] = shadowCell{}
					}
				}
			}
		}(w, rng.Uint64())
	}
	wg.Wait()
	if snapErr != nil {
		return 0, fmt.Errorf("snapshot under load: %w", snapErr)
	}
	if clean {
		// Clean shutdown path: the caller's Close flushes and fsyncs.
		return opsPerWorker * threads, nil
	}
	// Kill: with FsyncAlways every acknowledged op is already on disk,
	// so dropping the buffers must lose nothing.
	if err := m.SimulateCrash(); err != nil {
		return 0, fmt.Errorf("SimulateCrash: %w", err)
	}
	return opsPerWorker * threads, nil
}

// tornCycle runs a single writer, journals every operation with the
// shadow state after it, kills the store with a torn tail, and audits a
// fresh recovery right away: it must
// match some prefix of the journal no shorter than the synced one, and
// the shadow is rolled back to that prefix for the cycles that follow.
func (c *crashRun) tornCycle(m *skiphash.Map[int64, int64], cycle int) (int, error) {
	shadow, universe, rng := c.shadow, c.universe, c.rng
	ops := 200 + int(rng.Uint64()%600)
	syncAt := rng.IntN(ops)
	// states[i] is the shadow after i operations of this cycle.
	states := make([][]shadowCell, 0, ops+1)
	cur := append([]shadowCell(nil), shadow...)
	states = append(states, append([]shadowCell(nil), cur...))
	minSurvive := 0
	for i := 0; i < ops; i++ {
		k := int64(rng.Uint64() % uint64(universe))
		v := int64(cycle*1_000_000 + i)
		if rng.Uint64()&1 == 0 {
			if m.Insert(k, v) {
				cur[k] = shadowCell{v: v, ok: true}
			}
		} else {
			if m.Remove(k) {
				cur[k] = shadowCell{}
			}
		}
		states = append(states, append([]shadowCell(nil), cur...))
		if i == syncAt {
			if err := m.Sync(); err != nil {
				return 0, fmt.Errorf("Sync: %w", err)
			}
			minSurvive = i + 1
		}
	}
	torn, ok := m.Persister().(interface{ SimulateTornCrash(int64) error })
	if !ok {
		return 0, fmt.Errorf("persister exposes no SimulateTornCrash")
	}
	if err := torn.SimulateTornCrash(int64(rng.Uint64() % 512)); err != nil {
		return 0, fmt.Errorf("SimulateTornCrash: %w", err)
	}

	// Recover immediately and find which prefix survived.
	r, err := c.open(skiphash.Durability{Dir: c.dir})
	if err != nil {
		return 0, fmt.Errorf("recovery after torn crash: %w", err)
	}
	recovered := make([]shadowCell, universe)
	for k := int64(0); k < universe; k++ {
		if v, ok := r.Lookup(k); ok {
			recovered[k] = shadowCell{v: v, ok: true}
		}
	}
	r.Close()
	match := -1
	for n := len(states) - 1; n >= 0; n-- {
		if equalShadow(recovered, states[n]) {
			match = n
			break
		}
	}
	if match < 0 {
		return 0, fmt.Errorf("torn recovery matches no prefix of the %d-op journal", ops)
	}
	if match < minSurvive {
		return 0, fmt.Errorf("torn recovery lost synced operations: prefix %d < synced %d", match, minSurvive)
	}
	copy(shadow, states[match])
	return ops, nil
}

func equalShadow(a, b []shadowCell) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
