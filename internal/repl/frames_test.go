package repl

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/wire"
	"repro/skiphash"
)

// waitClosed waits for ch to close, failing the test after 10 s.
func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestReplicaRefusesBadRuns(t *testing.T) {
	// Frames arrive from the network, so the replica checks them where
	// they land: a frame with one flipped payload byte, and a run whose
	// start skips bytes, are each refused — the connection drops,
	// nothing of the run is applied, the watermark and the resume
	// position stay put — and a good run after them applies.
	good := putFrame(400, 4, 40)
	flipped := putFrame(200, 2, 20)
	flipped[len(flipped)-3] ^= 0x10
	dropped := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	resumed := make(chan uint64, 2)
	ln := scriptedPrimary(t,
		func(fr *wire.FrameReader, send func(wire.ReplMsg)) {
			readFollow(t, fr)
			send(wire.ReplMsg{Op: wire.OpFollow, Epoch: 1, Full: true})
			n, ops := puts(1, 10)
			send(wire.ReplMsg{Op: wire.OpSnapChunk, Stamp: 50, Count: n, Ops: ops})
			send(wire.ReplMsg{Op: wire.OpCaughtUp, Stamp: 100})
			send(wire.ReplMsg{Op: wire.OpWalRecord, Seq: 0, Ops: flipped})
			fr.Next() // until the replica hangs up
			close(dropped[0])
		},
		func(fr *wire.FrameReader, send func(wire.ReplMsg)) {
			f := readFollow(t, fr)
			resumed <- f.Seq
			send(wire.ReplMsg{Op: wire.OpFollow, Epoch: 1, Seq: f.Seq})
			send(wire.ReplMsg{Op: wire.OpWalRecord, Seq: f.Seq + 3, Ops: good})
			fr.Next()
			close(dropped[1])
		},
		func(fr *wire.FrameReader, send func(wire.ReplMsg)) {
			f := readFollow(t, fr)
			resumed <- f.Seq
			send(wire.ReplMsg{Op: wire.OpFollow, Epoch: 1, Seq: f.Seq})
			send(wire.ReplMsg{Op: wire.OpWalRecord, Seq: f.Seq, Ops: good})
			fr.Next()
		})

	r := startReplica(t, ln.Addr().String())
	defer r.Close()
	for i, what := range []string{"the flipped byte", "the gap"} {
		waitClosed(t, dropped[i], "the replica to drop the run with "+what)
		for _, k := range []int64{2, 4} {
			if v, ok := r.Map().Lookup(k); ok {
				t.Fatalf("after the run with %s: key %d applied (%d)", what, k, v)
			}
		}
		if w := r.Watermark(); w != 100 {
			t.Fatalf("after the run with %s: watermark %d, want 100", what, w)
		}
		if pos := <-resumed; pos != 0 {
			t.Fatalf("after the run with %s: replica resumes from %d, want 0", what, pos)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.Watermark() != 400 {
		if time.Now().After(deadline) {
			t.Fatalf("good run not applied: watermark %d", r.Watermark())
		}
		time.Sleep(time.Millisecond)
	}
	if v, ok := r.Map().Lookup(4); !ok || v != 40 {
		t.Fatalf("key 4 = %d %v after the good run", v, ok)
	}
}

// FuzzReplFrames throws arbitrary log runs at a replica. A run is
// refused unless it starts at the replica's position and every frame
// checks; a refused run leaves the position where it was, and one that
// starts anywhere else applies nothing. An accepted run leaves the map
// holding what crash recovery loads from a segment holding the same
// frames (when stamps do not decrease, as in any primary's log).
func FuzzReplFrames(f *testing.F) {
	run := append(putFrame(7, 1, 10, 2, 20), putFrame(9, 3, 30)...)
	ic := persist.Int64Codec()
	del := ic.Append([]byte{2}, 1) // a delete of key 1
	run = append(run, walFrame(11, 1, del)...)
	f.Add(uint64(0), run)
	flipped := bytes.Clone(run)
	flipped[20] ^= 1
	f.Add(uint64(0), flipped)
	f.Add(uint64(5), run)
	f.Add(uint64(0), run[:len(run)-2])
	f.Add(uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, start uint64, frames []byte) {
		r := &Replica{m: skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})}
		defer r.m.Close()
		var stamps []uint64
		pos, err := r.applyRun(nil, 0, &wire.ReplMsg{Op: wire.OpWalRecord, Seq: start, Ops: frames})
		if err != nil {
			if pos != 0 || r.pos != 0 {
				t.Fatalf("refused run moved the position to %d/%d", pos, r.pos)
			}
			if n := len(allPairs(r.m)); start != 0 && n != 0 {
				t.Fatalf("run at %d refused as a gap applied %d pairs", start, n)
			}
			return
		}
		if start != 0 || pos != uint64(len(frames)) || r.pos != pos {
			t.Fatalf("run at %d of %d bytes accepted at position 0, now at %d/%d", start, len(frames), pos, r.pos)
		}
		persist.WalkFrames(frames, func(_ int64, stamp, _ uint64, _ []byte) error {
			stamps = append(stamps, stamp)
			return nil
		})
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				return // recovery orders by stamp, the stream by position
			}
		}
		dir := t.TempDir()
		seg := append([]byte("SKHWAL1\n"), frames...)
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{
			Durability: &skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncNone},
		}, skiphash.Int64Codec(), skiphash.Int64Codec())
		if err != nil {
			t.Fatalf("recovery refuses a run the stream accepted: %v", err)
		}
		defer rec.Close()
		got, want := allPairs(r.m), allPairs(rec)
		if len(got) != len(want) {
			t.Fatalf("stream applied %v, recovery loads %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stream applied %v, recovery loads %v", got, want)
			}
		}
	})
}
