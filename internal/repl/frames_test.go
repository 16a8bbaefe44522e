package repl

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/server"
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
	// Snapshot bytes and log frames arrive from the network, so the
	// replica checks them where they land, with recovery's own checks.
	// A bad full-resync stream is refused: the connection drops, nothing
	// is reloaded, the watermark stays 0 and the replica asks for a full
	// resync again. After a good resync, a log run with one flipped
	// payload byte, and a run whose start skips bytes, are each refused:
	// nothing of the run is applied, the watermark and the resume
	// position stay put. The good streams after them apply.
	magic := len("SKHSNP1\n")
	trailerLen := len(snapFile()) - magic
	one := snapFile(chunk{50, []int64{5, 50}})
	two := snapFile(chunk{50, []int64{5, 50}}, chunk{60, []int64{6, 60}})
	flippedSnap := bytes.Clone(two)
	flippedSnap[magic+8+3] ^= 0x10 // inside the first chunk frame's stamp
	noTrailer := two[:len(two)-trailerLen]
	// one's chunk under two's trailer: the trailer counts a chunk that
	// never came.
	shortTotal := append(bytes.Clone(one[:len(one)-trailerLen]), two[len(two)-trailerLen:]...)

	// Each script waits for the test's go-ahead, so the test can check
	// the replica between connections, then reports the Follow it read.
	gate := make(chan struct{})
	abort := make(chan struct{})
	resumed := make(chan wire.ReplMsg, 1)
	var dropped []chan struct{}
	gated := func(body func(f wire.ReplMsg, fr *wire.FrameReader, send func(wire.ReplMsg))) func(*wire.FrameReader, func(wire.ReplMsg)) {
		done := make(chan struct{})
		dropped = append(dropped, done)
		return func(fr *wire.FrameReader, send func(wire.ReplMsg)) {
			select {
			case <-gate:
			case <-abort:
				return
			}
			f := readFollow(t, fr)
			resumed <- f
			body(f, fr, send)
			fr.Next() // until the replica hangs up
			close(done)
		}
	}
	// sendSnap streams a snapshot file in two runs cut inside a frame.
	sendSnap := func(send func(wire.ReplMsg), file []byte) {
		cut := len(file)/2 + 1
		send(wire.ReplMsg{Op: wire.OpSnapChunk, Data: file[:cut]})
		send(wire.ReplMsg{Op: wire.OpSnapChunk, Data: file[cut:]})
	}
	badStreams := []struct {
		name string
		file []byte
		log  bool // a log run follows the snapshot
	}{
		{"a flipped byte inside a chunk frame", flippedSnap, false},
		{"no trailer before the first log run", noTrailer, true},
		{"no trailer before CaughtUp", noTrailer, false},
		{"a trailer total that disagrees with its chunks", shortTotal, false},
	}
	var scripts []func(*wire.FrameReader, func(wire.ReplMsg))
	for _, bad := range badStreams {
		scripts = append(scripts, gated(func(_ wire.ReplMsg, _ *wire.FrameReader, send func(wire.ReplMsg)) {
			send(wire.ReplMsg{Op: wire.OpFollow, Epoch: 1, Full: true})
			sendSnap(send, bad.file)
			if bad.log {
				send(wire.ReplMsg{Op: wire.OpWalRecord, Seq: 0, Data: putFrame(70, 7, 70)})
			}
			send(wire.ReplMsg{Op: wire.OpCaughtUp, Stamp: 100})
		}))
	}
	// The good resync: key 3's chunk entry and a log op on key 3 share
	// stamp 50, and the log op must win, as it does in recovery, which
	// folds the snapshot before any log op. Then the run with a flipped
	// byte.
	tie := putFrame(50, 3, 31)
	good := putFrame(400, 4, 40)
	flipped := putFrame(200, 2, 20)
	flipped[len(flipped)-3] ^= 0x10
	scripts = append(scripts,
		gated(func(_ wire.ReplMsg, _ *wire.FrameReader, send func(wire.ReplMsg)) {
			send(wire.ReplMsg{Op: wire.OpFollow, Epoch: 1, Full: true})
			sendSnap(send, snapFile(chunk{50, []int64{1, 10, 3, 30}}))
			send(wire.ReplMsg{Op: wire.OpWalRecord, Seq: 0, Data: tie})
			send(wire.ReplMsg{Op: wire.OpCaughtUp, Stamp: 100})
			send(wire.ReplMsg{Op: wire.OpWalRecord, Seq: uint64(len(tie)), Data: flipped})
		}),
		gated(func(f wire.ReplMsg, _ *wire.FrameReader, send func(wire.ReplMsg)) {
			send(wire.ReplMsg{Op: wire.OpFollow, Epoch: 1, Seq: f.Seq})
			send(wire.ReplMsg{Op: wire.OpWalRecord, Seq: f.Seq + 3, Data: good})
		}),
		gated(func(f wire.ReplMsg, _ *wire.FrameReader, send func(wire.ReplMsg)) {
			send(wire.ReplMsg{Op: wire.OpFollow, Epoch: 1, Seq: f.Seq})
			send(wire.ReplMsg{Op: wire.OpWalRecord, Seq: f.Seq, Data: good})
		}))
	ln := scriptedPrimary(t, scripts...)
	t.Cleanup(func() { close(abort) }) // before scriptedPrimary's cleanup

	r := newReplica(t, ln.Addr().String(), t.TempDir())
	defer r.Close()
	// next lets the next script run and returns the Follow it read.
	next := func(what string) wire.ReplMsg {
		t.Helper()
		select {
		case gate <- struct{}{}:
		case <-time.After(10 * time.Second):
			t.Fatalf("the replica never redialed for %s", what)
		}
		select {
		case f := <-resumed:
			return f
		case <-time.After(10 * time.Second):
			t.Fatalf("no Follow for %s", what)
		}
		return wire.ReplMsg{}
	}
	for i, bad := range badStreams {
		if f := next(bad.name); f.Epoch != 0 || f.Seq != 0 {
			t.Fatalf("before the stream with %s: replica resumes from (%d,%d), want a full resync", bad.name, f.Epoch, f.Seq)
		}
		waitClosed(t, dropped[i], "the replica to drop the stream with "+bad.name)
		if got := allPairs(r.Map()); len(got) != 0 {
			t.Fatalf("after the stream with %s: reloaded %v", bad.name, got)
		}
		if w := r.Watermark(); w != 0 {
			t.Fatalf("after the stream with %s: watermark %d, want 0", bad.name, w)
		}
	}

	if f := next("the good resync"); f.Epoch != 0 || f.Seq != 0 {
		t.Fatalf("before the good resync: replica resumes from (%d,%d), want a full resync", f.Epoch, f.Seq)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.WaitReady(ctx); err != nil {
		t.Fatalf("the good resync never caught up: %v", err)
	}
	for k, want := range map[int64]int64{1: 10, 3: 31} {
		if v, ok := r.Map().Lookup(k); !ok || v != want {
			t.Fatalf("after the good resync: key %d = %d %v, want %d", k, v, ok, want)
		}
	}
	for i, what := range []string{"the flipped byte", "the gap"} {
		waitClosed(t, dropped[len(badStreams)+i], "the replica to drop the run with "+what)
		for _, k := range []int64{2, 4} {
			if v, ok := r.Map().Lookup(k); ok {
				t.Fatalf("after the run with %s: key %d applied (%d)", what, k, v)
			}
		}
		if w := r.Watermark(); w != 100 {
			t.Fatalf("after the run with %s: watermark %d, want 100", what, w)
		}
		if f := next("the run after " + what); f.Seq != uint64(len(tie)) {
			t.Fatalf("after the run with %s: replica resumes from %d, want %d", what, f.Seq, len(tie))
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
		r := &Replica{}
		r.be.Store(server.NewShardedBackend(skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})))
		defer r.Map().Close()
		var stamps []uint64
		pos, err := r.applyRun(nil, 0, &wire.ReplMsg{Op: wire.OpWalRecord, Seq: start, Data: frames})
		if err != nil {
			if pos != 0 || r.pos != 0 {
				t.Fatalf("refused run moved the position to %d/%d", pos, r.pos)
			}
			if n := len(allPairs(r.Map())); start != 0 && n != 0 {
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
		got, want := allPairs(r.Map()), allPairs(rec)
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
