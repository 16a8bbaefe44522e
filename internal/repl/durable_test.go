package repl

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/skiphash"
)

func TestNewReplicaRequiresDurability(t *testing.T) {
	if r, err := NewReplica(ReplicaConfig{Addr: "127.0.0.1:1"}); err == nil || r != nil {
		t.Fatalf("NewReplica without Durability = %v, %v; want an error", r, err)
	}
}

func TestReplicaRestartResumes(t *testing.T) {
	// A replica closed, or crashed, while the primary keeps writing
	// reopens its directory, resumes from its saved position and
	// converges with no full resync on either side.
	for _, crash := range []bool{false, true} {
		name := map[bool]string{false: "close", true: "crash"}[crash]
		t.Run(name, func(t *testing.T) {
			h := startPrimary(t, t.TempDir(), "127.0.0.1:0")
			defer h.close()
			for i := int64(0); i < 300; i++ {
				h.m.Put(i, i)
			}
			dir := t.TempDir()
			r := startReplicaIn(t, h.addr(), dir)
			waitConverge(t, h.m, r)
			ps0 := h.p.Stats().Resyncs
			if crash {
				// Records applied from here on reach neither its log nor
				// its position, and the replica keeps applying them in
				// memory until it is closed.
				if err := r.Map().SimulateCrash(); err != nil {
					t.Fatalf("SimulateCrash: %v", err)
				}
			}
			for i := int64(300); i < 500; i++ {
				h.m.Put(i, -i)
			}
			err := r.Close()
			if !crash && err != nil {
				t.Fatalf("Close: %v", err)
			}
			for i := int64(0); i < 100; i++ {
				h.m.Remove(i)
				h.m.Put(i+1000, i)
			}
			r = startReplicaIn(t, h.addr(), dir)
			defer r.Close()
			waitConverge(t, h.m, r)
			if ps, rs := h.p.Stats().Resyncs, r.Stats().Resyncs; ps != ps0 || rs != 0 {
				t.Fatalf("restart took a full resync: primary %d -> %d, replica %d", ps0, ps, rs)
			}
		})
	}
}

func TestReplicaResyncSwapsMap(t *testing.T) {
	// A new primary epoch forces a full resync on a running replica: the
	// map recovered from the staged files replaces the old one behind
	// Map and the backend, the commit observer moves with it, and no
	// staging directory is left.
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0")
	for i := int64(0); i < 100; i++ {
		h.m.Put(i, i)
	}
	dir := t.TempDir()
	r := startReplicaIn(t, h.addr(), dir)
	defer r.Close()
	waitConverge(t, h.m, r)
	old := r.Map()
	commits := obs.NewRegistry().Histogram("commits", "", obs.LatencyBounds, 1e-9)
	old.SetCommitObserver(commits)
	be := r.Backend()
	addr := h.addr()
	h.close()

	h2 := startPrimary(t, t.TempDir(), addr)
	defer h2.close()
	for i := int64(1000); i < 1200; i++ {
		h2.m.Put(i, -i)
	}
	waitConverge(t, h2.m, r)
	m := r.Map()
	if m == old {
		t.Fatal("full resync kept the old map")
	}
	if rs := r.Stats().Resyncs; rs != 2 {
		t.Fatalf("%d full resyncs, want 2", rs)
	}
	if o := m.Runtime().CommitObserver(); o != commits {
		t.Fatalf("commit observer after the swap is %v, want the old map's", o)
	}
	for _, k := range []int64{5, 1005} {
		var resp wire.Response
		be.Get(&wire.Request{Op: wire.OpGet, Key: k}, &resp)
		if want, ok := h2.m.Lookup(k); resp.Ok != ok || resp.Val != want {
			t.Fatalf("backend Get(%d) = %d %v, want %d %v", k, resp.Val, resp.Ok, want, ok)
		}
	}
	if err := m.CheckInvariants(skiphash.CheckOptions{}); err != nil {
		t.Fatalf("swapped-in map: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "restore.tmp")); !os.IsNotExist(err) {
		t.Fatalf("staging directory left after the swap: %v", err)
	}
}

func TestReplicaCrashMidResync(t *testing.T) {
	// A replica caught up with one primary epoch is interrupted in the
	// full resync of the next: the connection is cut after the
	// snapshot, or the replica is closed with the snapshot and a log
	// run staged. Its directory keeps the old log and position, so a
	// restarted replica resumes from them, and one full resync brings it
	// to the live primary's state.
	for _, cut := range []bool{true, false} {
		name := map[bool]string{true: "cut after the snapshot", false: "closed between staging and swap"}[cut]
		t.Run(name, func(t *testing.T) {
			h := startPrimary(t, t.TempDir(), "127.0.0.1:0")
			defer h.close()
			for i := int64(0); i < 200; i++ {
				h.m.Put(i, i)
			}
			interrupted := make(chan struct{})
			ln := scriptedPrimary(t,
				func(fr *wire.FrameReader, send func(wire.ReplMsg)) {
					readFollow(t, fr)
					send(wire.ReplMsg{Op: wire.OpFollow, Epoch: 1, Full: true})
					send(wire.ReplMsg{Op: wire.OpSnapChunk, Data: snapFile(chunk{50, []int64{5001, 1, 5002, 2}})})
					send(wire.ReplMsg{Op: wire.OpCaughtUp, Stamp: 100})
					fr.Next() // until the replica hangs up
				},
				func(fr *wire.FrameReader, send func(wire.ReplMsg)) {
					readFollow(t, fr)
					send(wire.ReplMsg{Op: wire.OpFollow, Epoch: 2, Full: true})
					send(wire.ReplMsg{Op: wire.OpSnapChunk, Data: snapFile(chunk{60, []int64{6001, 1}})})
					if !cut {
						send(wire.ReplMsg{Op: wire.OpWalRecord, Seq: 0, Data: putFrame(70, 6002, 2)})
					}
					close(interrupted)
					if !cut {
						fr.Next()
					}
				})
			dir := t.TempDir()
			r := startReplicaIn(t, ln.Addr().String(), dir)
			r.mu.Lock()
			r.nc.Close() // on to the second script
			r.mu.Unlock()
			<-interrupted
			deadline := time.Now().Add(10 * time.Second)
			for s := r.Stats(); s.Resyncs < 2 || !cut && s.Records < 1; s = r.Stats() {
				if time.Now().After(deadline) {
					t.Fatal("the replica never took the second resync's stream")
				}
				time.Sleep(time.Millisecond)
			}
			if cut {
				// What a crash mid-staging leaves behind; Open removes it.
				if err := os.MkdirAll(filepath.Join(dir, "restore.tmp"), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			r = startReplicaIn(t, h.addr(), dir)
			defer r.Close()
			waitConverge(t, h.m, r)
			if s := r.Stats(); s.Resyncs != 1 || s.EpochChanges != 1 {
				t.Fatalf("restarted replica: %d full resyncs, %d epoch changes; want 1 and 1 from the saved epoch", s.Resyncs, s.EpochChanges)
			}
			if _, err := os.Stat(filepath.Join(dir, "restore.tmp")); !os.IsNotExist(err) {
				t.Fatalf("staging directory left: %v", err)
			}
		})
	}
}

func TestPromotedReplicaSurvivesClose(t *testing.T) {
	// A promoted replica's map is durable: its writes survive Close, and
	// skiphash.Open over its directory returns the same pairs.
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0")
	for i := int64(0); i < 100; i++ {
		h.m.Put(i, i)
	}
	dir := t.TempDir()
	r := startReplicaIn(t, h.addr(), dir)
	waitConverge(t, h.m, r)
	h.close()
	if err := r.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	m := r.Map()
	for i := int64(0); i < 20; i++ {
		m.Remove(i)
		m.Put(i+500, i)
	}
	want := allPairs(m)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reopened, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{
		Durability: &skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncNone},
	}, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		t.Fatalf("Open over the promoted replica's directory: %v", err)
	}
	defer reopened.Close()
	got := allPairs(reopened)
	if len(got) != len(want) {
		t.Fatalf("reopened %d pairs, promoted replica held %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reopened pair %v, promoted replica held %v", got[i], want[i])
		}
	}
}

func TestPromoteRefusesClosedLog(t *testing.T) {
	// A replica whose map's log is closed (by a full resync that failed
	// after closing the old map's log, or here by a simulated crash)
	// cannot promote: its writes could not be made durable.
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0")
	defer h.close()
	h.m.Put(1, 1)
	r := startReplica(t, h.addr())
	defer r.Close()
	if err := r.Map().SimulateCrash(); err != nil {
		t.Fatalf("SimulateCrash: %v", err)
	}
	if err := r.Backend().(server.Promoter).Promote(); err == nil {
		t.Fatal("Promote over a closed log succeeded")
	}
	write := []wire.Request{{Op: wire.OpInsert, Key: 2, Val: 2}}
	if err := r.Backend().Atomic(write, make([]wire.Response, 1)); err != server.ErrReadOnly {
		t.Fatalf("write after a refused promotion = %v, want ErrReadOnly", err)
	}
}
