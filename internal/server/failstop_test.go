package server

import (
	"errors"
	"syscall"
	"testing"

	"repro/internal/fsfake"
	"repro/internal/persist"
	"repro/internal/wire"
	"repro/skiphash"
)

// TestServedWritesFailStopAfterLogError: once an fsync of the log fails,
// a FsyncAlways map answers no write StatusOK — neither the run whose
// record that fsync was to cover nor any run after it — a Sync answers
// the error, Gets miss every write of the runs after the failing one
// (the log refused them, so they rolled back), Map.Close returns the
// error, and a reopen holds every write that was answered StatusOK.
func TestServedWritesFailStopAfterLogError(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		dir := t.TempDir()
		open := func(d persist.Disk) *skiphash.Map[int64, int64] {
			dur := persist.OnDisk(skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncAlways}, d)
			m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64,
				skiphash.Config{Durability: &dur}, skiphash.Int64Codec(), skiphash.Int64Codec())
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			return m
		}
		inj := fsfake.NewInjector(nil, seed)
		m := open(inj)
		k := inj.Arm(fsfake.FileSync, 2, 8, syscall.EIO)
		p := servePipe(t, NewShardedBackend(m), Config{})

		// Each chunk is one cycle, so one run, whose commit waits for an
		// fsync of its own: the k-th run's is the k-th.
		const runs, perRun = 12, 3
		var chunks [][]byte
		id := uint64(0)
		for r := 0; r < runs; r++ {
			var chunk []byte
			for i := 0; i < perRun; i++ {
				id++
				chunk = append(chunk, putFrame(id, int64(id))...)
			}
			chunks = append(chunks, chunk)
		}
		id++
		chunks = append(chunks, wire.AppendRequest(nil, &wire.Request{ID: id, Op: wire.OpSync}))
		p.send(0, chunks...)

		var acked []int64
		for want := uint64(1); want <= id; want++ {
			payload, err := p.fr.Next()
			if err != nil {
				t.Fatalf("seed %d: response %d: %v", seed, want, err)
			}
			resp, err := wire.ParseResponse(payload)
			if err != nil || resp.ID != want {
				t.Fatalf("seed %d: response %d: id %d, %v", seed, want, resp.ID, err)
			}
			switch {
			case resp.Status == wire.StatusOK && resp.Op == wire.OpPut && len(acked) == int(want-1):
				acked = append(acked, int64(want))
			case resp.Status != wire.StatusErr:
				t.Fatalf("seed %d: %v %d answered %v (%s) after %d writes answered OK",
					seed, resp.Op, want, resp.Status, resp.Msg, len(acked))
			}
		}
		if want := (int(k) - 1) * perRun; len(acked) != want {
			t.Fatalf("seed %d: %d writes answered OK before fsync %d failed, want %d", seed, len(acked), k, want)
		}
		// The log refused the runs after the failing one, so memory
		// holds none of their Puts.
		var gets []byte
		first := id
		for key := int64(k)*perRun + 1; key <= runs*perRun; key++ {
			id++
			gets = append(gets, wire.AppendRequest(nil, &wire.Request{ID: id, Op: wire.OpGet, Key: key})...)
		}
		p.send(0, gets)
		for want := first + 1; want <= id; want++ {
			if resp := p.expect(want); resp.Ok {
				t.Fatalf("seed %d: Get of a Put refused after fsync %d failed found %d", seed, k, resp.Val)
			}
		}
		if err := m.Close(); !errors.Is(err, syscall.EIO) {
			t.Fatalf("seed %d: Close = %v, want EIO", seed, err)
		}

		m = open(nil)
		for _, key := range acked {
			if v, ok := m.Lookup(key); !ok || v != key {
				t.Fatalf("seed %d: write %d answered OK, reopened as %d, %v", seed, key, v, ok)
			}
		}
		m.Close()
	}
}
