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

func runCrash(cycles, threads int, universe int64, seed uint64, dir, reproducer string) {
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
			fmt.Fprintln(os.Stderr, "skipstress:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else {
		// The shadow model starts empty, so a directory with recovered
		// state would fail the cycle-0 audit spuriously — and deleting a
		// user-named directory is not this tool's call. Refuse instead.
		if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
			fmt.Fprintf(os.Stderr, "skipstress: -dir %s is not empty; -crash needs a fresh directory\n", dir)
			os.Exit(2)
		}
	}
	fmt.Printf("skipstress: -crash, %d cycles, %d threads, universe %d, seed %d, dir %s\n",
		cycles, threads, universe, seed, dir)

	shadow := make([]shadowCell, universe)
	rng := rand.New(rand.NewPCG(seed, 0xdead))
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
		fmt.Fprintf(os.Stderr, "reproduce with: %s\n", reproducer)
		os.Exit(1)
	}

	totalOps := 0
	for cycle := 0; cycle < cycles; cycle++ {
		torn := cycle%2 == 1
		fsync := skiphash.FsyncAlways
		if torn {
			fsync = skiphash.FsyncNone
		}
		cfg := skiphash.Config{Durability: &skiphash.Durability{
			Dir:           dir,
			Fsync:         fsync,
			SegmentBytes:  1 << 16,
			SnapshotBytes: -1, // snapshots only where the stress places them
		}}
		m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
		if err != nil {
			fail("cycle %d: recovery failed: %v", cycle, err)
		}
		// Entry audit: recovery must reproduce the shadow exactly (every
		// previous cycle ended at a point the shadow reflects).
		auditEqual(m, shadow, func(format string, args ...any) {
			fail("cycle %d entry: "+format, append([]any{cycle}, args...)...)
		})

		if torn {
			totalOps += crashCycleTorn(m, dir, shadow, universe, rng, cycle, fail)
		} else {
			clean := cycle%6 == 4 // this cycle ends in Close, not a kill
			totalOps += crashCycleAlways(m, shadow, universe, threads, rng, cycle, clean, fail)
		}
		m.Close()
	}

	// Final clean reopen.
	cfg := skiphash.Config{Durability: &skiphash.Durability{Dir: dir}}
	m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		fail("final recovery: %v", err)
	}
	auditEqual(m, shadow, fail)
	m.Close()
	fmt.Printf("cycles=%d ops=%d\n", cycles, totalOps)
	fmt.Println("skipstress: PASS")
}

// auditEqual compares the recovered map against the shadow cell by
// cell.
func auditEqual(m *skiphash.Map[int64, int64], shadow []shadowCell, fail func(string, ...any)) {
	for k := range shadow {
		v, ok := m.Lookup(int64(k))
		if ok != shadow[k].ok || (ok && v != shadow[k].v) {
			fail("key %d: recovered (%d,%v), shadow (%d,%v)", k, v, ok, shadow[k].v, shadow[k].ok)
		}
	}
}

// crashCycleAlways runs concurrent workers on partitioned keys (worker
// w owns keys ≡ w mod threads, so each shadow cell has one writer) and
// kills the store after a random operation budget — or, when clean is
// set, leaves the kill out so the caller's Close performs a clean
// flush-and-shutdown. FsyncAlways means an operation that returned is
// durable; workers stop at an operation boundary, so either way the
// recovered state must equal the shadow exactly.
func crashCycleAlways(m *skiphash.Map[int64, int64], shadow []shadowCell, universe int64,
	threads int, rng *rand.Rand, cycle int, clean bool, fail func(string, ...any)) int {
	opsPerWorker := 100 + int(rng.Uint64()%400)
	snapshotAt := -1
	if rng.Uint64()%4 == 0 {
		snapshotAt = rng.IntN(opsPerWorker)
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int, wseed uint64) {
			defer wg.Done()
			wrng := rand.New(rand.NewPCG(wseed, uint64(w)))
			h := m.NewHandle()
			defer h.Close()
			for i := 0; i < opsPerWorker; i++ {
				k := (int64(wrng.Uint64()%uint64(universe))/int64(threads))*int64(threads) + int64(w)
				if k >= universe {
					k -= int64(threads)
				}
				if w == 0 && i == snapshotAt {
					if err := m.Snapshot(); err != nil {
						fail("cycle %d: snapshot under load: %v", cycle, err)
					}
				}
				v := int64(cycle*1_000_000 + i)
				if wrng.Uint64()&1 == 0 {
					if h.Insert(k, v) {
						shadow[k] = shadowCell{v: v, ok: true}
					}
				} else {
					if h.Remove(k) {
						shadow[k] = shadowCell{}
					}
				}
			}
		}(w, rng.Uint64())
	}
	wg.Wait()
	if clean {
		// Clean shutdown path: the caller's Close flushes and fsyncs.
		return opsPerWorker * threads
	}
	// Kill: with FsyncAlways every acknowledged op is already on disk,
	// so dropping the buffers must lose nothing.
	if err := m.SimulateCrash(); err != nil {
		fail("cycle %d: SimulateCrash: %v", cycle, err)
	}
	return opsPerWorker * threads
}

// crashCycleTorn runs a single writer, journals every operation with
// the shadow state after it, kills the store with a torn tail, and
// leaves the prefix audit to the next cycle's recovery — performed here
// immediately by reopening read-only would double Open paths, so the
// audit runs now against a fresh recovery, and the shadow is rolled
// back to the surviving prefix for the cycles that follow.
func crashCycleTorn(m *skiphash.Map[int64, int64], dir string, shadow []shadowCell, universe int64,
	rng *rand.Rand, cycle int, fail func(string, ...any)) int {
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
				fail("cycle %d: Sync: %v", cycle, err)
			}
			minSurvive = i + 1
		}
	}
	torn, ok := m.Persister().(interface{ SimulateTornCrash(int64) error })
	if !ok {
		fail("cycle %d: persister exposes no SimulateTornCrash", cycle)
	}
	if err := torn.SimulateTornCrash(int64(rng.Uint64() % 512)); err != nil {
		fail("cycle %d: SimulateTornCrash: %v", cycle, err)
	}

	// Recover immediately and find which prefix survived.
	cfg := skiphash.Config{Durability: &skiphash.Durability{Dir: dir}}
	r, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		fail("cycle %d: recovery after torn crash: %v", cycle, err)
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
		fail("cycle %d: torn recovery matches no prefix of the %d-op journal", cycle, ops)
	}
	if match < minSurvive {
		fail("cycle %d: torn recovery lost synced operations: prefix %d < synced %d", cycle, match, minSurvive)
	}
	copy(shadow, states[match])
	return ops
}

func equalShadow(a, b []shadowCell) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
