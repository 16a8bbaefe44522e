package skiphash_test

import (
	"math"
	"slices"
	"testing"

	"repro/skiphash"
)

// FuzzDurableReplayReads interleaves optimistic fast-path reads with
// WAL-logged writes, then closes the map, recovers it by WAL replay,
// and drives the same interleaving over the replayed nodes. Every read
// — before and after recovery — is checked against a model, so the fast
// path's validation protocol is fuzzed over node/index states produced
// both by live transactions and by the recovery path's bulk build. The
// reopen runs at one shard, or at four when the input has an odd length
// (its last byte belongs to no opcode pair), and a full Range right
// after it checks the bulk-built level links and the shard routing.
func FuzzDurableReplayReads(f *testing.F) {
	// Seeds interleave reads (odd opcodes) between writes, with duplicate
	// and boundary keys, and a write-after-read tail that the replay must
	// preserve.
	f.Add([]byte{0, 5, 1, 5, 0, 7, 1, 7, 2, 5, 1, 6})
	f.Add([]byte{0, 250, 1, 250, 0, 251, 1, 251, 2, 250, 1, 252})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1, 1, 2, 1, 3, 2, 2, 1, 2, 3, 1, 1, 1})
	f.Add([]byte{4, 9, 1, 9, 4, 9, 1, 9, 2, 9, 1, 9})
	f.Add([]byte{0, 1, 0, 250, 0, 251, 0, 7, 0, 8, 2, 7, 1, 8, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			data = data[:1<<10]
		}
		dir := t.TempDir()
		cfg := skiphash.Config{
			Buckets:    127,
			MaxLevel:   8,
			Durability: &skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncNone},
		}
		m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		model := make(map[int64]int64)

		// run applies the opcode stream: even opcodes write (WAL-logged),
		// odd opcodes read through the fast path, each verified in place.
		run := func(m *skiphash.Map[int64, int64], data []byte) {
			step := int64(0)
			for pos := 0; pos+1 < len(data); pos += 2 {
				opc, k := data[pos], fuzzKey(data[pos+1])
				step++
				v := step << 8
				switch opc % 6 {
				case 0: // Insert
					if m.Insert(k, v) {
						model[k] = v
					}
				case 2: // Remove
					if m.Remove(k) {
						delete(model, k)
					}
				case 4: // Put
					m.Put(k, v)
					model[k] = v
				case 1, 3: // Lookup (fast path)
					got, ok := m.Lookup(k)
					want, present := model[k]
					if ok != present || (ok && got != want) {
						t.Fatalf("step %d: Lookup(%d) = %d,%v want %d,%v", step, k, got, ok, want, present)
					}
				case 5: // Contains (fast path)
					_, present := model[k]
					if got := m.Contains(k); got != present {
						t.Fatalf("step %d: Contains(%d) = %v want %v", step, k, got, present)
					}
				}
			}
		}

		run(m, data)
		if err := m.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
		m.Close()

		// Recover by WAL replay and re-run the interleaving over the
		// replayed state; the model carries across, so the first reads
		// check recovery itself.
		cfg.Shards = 1
		if len(data)%2 == 1 {
			cfg.Shards = 4
		}
		m, err = skiphash.OpenSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer m.Close()
		want := make([]int64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		slices.Sort(want)
		got := m.Range(math.MinInt64, math.MaxInt64, nil)
		if len(got) != len(want) {
			t.Fatalf("after replay at %d shards: full Range has %d pairs, want %d", cfg.Shards, len(got), len(want))
		}
		for i, p := range got {
			if p.Key != want[i] || p.Val != model[p.Key] {
				t.Fatalf("after replay at %d shards: Range[%d] = %d:%d, want %d:%d", cfg.Shards, i, p.Key, p.Val, want[i], model[want[i]])
			}
		}
		for k, want := range model {
			if got, ok := m.Lookup(k); !ok || got != want {
				t.Fatalf("after replay: Lookup(%d) = %d,%v want %d,true", k, got, ok, want)
			}
		}
		run(m, data)
		if err := m.CheckInvariants(skiphash.CheckOptions{}); err != nil {
			t.Fatalf("invariants after replay: %v", err)
		}
	})
}
