package repl

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/skiphash"
)

// primaryHarness is one durable primary map with its WAL streamed.
type primaryHarness struct {
	m  *skiphash.Map[int64, int64]
	p  *Primary
	ln net.Listener
}

func (h *primaryHarness) addr() string { return h.ln.Addr().String() }

func (h *primaryHarness) close() {
	h.p.Shutdown()
	h.m.Close()
}

// startPrimary opens a durable map over dir and streams its
// WAL on addr ("127.0.0.1:0" for a fresh port).
func startPrimary(t *testing.T, dir, addr string, cfg PrimaryConfig) *primaryHarness {
	t.Helper()
	m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{
		Durability: &skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncNone},
	}, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cfg.Logf = t.Logf
	p, err := NewPrimary(m, cfg)
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go p.Serve(ln)
	return &primaryHarness{m: m, p: p, ln: ln}
}

func startReplica(t *testing.T, addr string) *Replica {
	t.Helper()
	r := NewReplica(ReplicaConfig{Addr: addr, RedialEvery: 20 * time.Millisecond, Logf: t.Logf})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	return r
}

func allPairs(m *skiphash.Map[int64, int64]) []skiphash.Pair[int64, int64] {
	return m.Range(math.MinInt64, math.MaxInt64, nil)
}

// waitConverge polls until the replica's full range equals the
// primary map's. Idle primary only.
func waitConverge(t *testing.T, pm *skiphash.Map[int64, int64], r *Replica) {
	t.Helper()
	want := allPairs(pm)
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := allPairs(r.Map())
		if len(got) == len(want) {
			same := true
			for i := range want {
				if got[i] != want[i] {
					same = false
					break
				}
			}
			if same {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica did not converge: %d pairs vs %d", len(got), len(want))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReplicaCatchUpFromEmptyAndLiveTail(t *testing.T) {
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0", PrimaryConfig{})
	defer h.close()
	for i := int64(0); i < 500; i++ {
		h.m.Put(i, i*10)
	}
	r := startReplica(t, h.addr())
	defer r.Close()
	waitConverge(t, h.m, r)
	if r.Watermark() == 0 {
		t.Fatal("caught-up replica has zero watermark")
	}
	// Live tail: new writes, overwrites and deletes stream through.
	w0 := r.Watermark()
	for i := int64(400); i < 700; i++ {
		h.m.Put(i, i*11)
	}
	for i := int64(0); i < 100; i++ {
		h.m.Remove(i)
	}
	waitConverge(t, h.m, r)
	if r.Watermark() < w0 {
		t.Fatalf("watermark regressed: %d -> %d", w0, r.Watermark())
	}
	// The live tail arrived as streamed WAL records, and the stamp the
	// lag gauge subtracts from never trails the applied watermark.
	rs := r.Stats()
	if rs.Records == 0 {
		t.Fatal("replica counted no streamed records after live tail")
	}
	if rs.PrimaryStamp < rs.Watermark {
		t.Fatalf("primary stamp %d behind watermark %d", rs.PrimaryStamp, rs.Watermark)
	}
}

func TestReplicaTailReconnect(t *testing.T) {
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0", PrimaryConfig{})
	defer h.close()
	for i := int64(0); i < 200; i++ {
		h.m.Put(i, i)
	}
	r := startReplica(t, h.addr())
	defer r.Close()
	waitConverge(t, h.m, r)
	// Cut every follower; writes continue while the replica is dark.
	h.p.DropFollowers()
	for i := int64(200); i < 400; i++ {
		h.m.Put(i, i)
	}
	waitConverge(t, h.m, r)
}

func TestReplicaResyncAfterRingEviction(t *testing.T) {
	// A ring too small to hold the backlog forces the reconnecting
	// follower through the snapshot path (Full header) instead of a
	// tail replay; convergence must survive that.
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0", PrimaryConfig{RingBytes: 256})
	defer h.close()
	for i := int64(0); i < 100; i++ {
		h.m.Put(i, i)
	}
	r := startReplica(t, h.addr())
	defer r.Close()
	waitConverge(t, h.m, r)
	h.p.DropFollowers()
	for i := int64(0); i < 500; i++ {
		h.m.Put(i, i*3)
	}
	waitConverge(t, h.m, r)

	// Both ends count the two snapshot passes (initial connect plus the
	// post-eviction reconnect) and agree on stream position.
	ps := h.p.Stats()
	if ps.Resyncs < 2 {
		t.Fatalf("primary served %d resyncs, want >= 2", ps.Resyncs)
	}
	rs := r.Stats()
	if rs.Resyncs < 2 {
		t.Fatalf("replica counted %d resyncs, want >= 2", rs.Resyncs)
	}
}

func TestEpochChangeForcesFullResync(t *testing.T) {
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0", PrimaryConfig{})
	for i := int64(0); i < 100; i++ {
		h.m.Put(i, i)
	}
	r := startReplica(t, h.addr())
	defer r.Close()
	waitConverge(t, h.m, r)
	addr := h.addr()
	h.close()
	// A different incarnation on the same address with disjoint state:
	// the epoch mismatch must force a wholesale resync, dropping every
	// key only the dead primary had.
	h2 := startPrimary(t, t.TempDir(), addr, PrimaryConfig{})
	defer h2.close()
	for i := int64(1000); i < 1100; i++ {
		h2.m.Put(i, i)
	}
	waitConverge(t, h2.m, r)
	if _, ok := r.Map().Lookup(5); ok {
		t.Fatal("stale key survived a full resync")
	}
}

func TestRestartedPrimaryForcesResyncAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	h := startPrimary(t, dir, "127.0.0.1:0", PrimaryConfig{})
	for i := int64(0); i < 300; i++ {
		h.m.Put(i, i)
	}
	r := startReplica(t, h.addr())
	defer r.Close()
	waitConverge(t, h.m, r)
	addr := h.addr()
	h.close()
	// Same durability directory reopened: recovery rebuilds the state,
	// the new epoch forces the replica through snapshot+tail, and the
	// states agree again.
	h2 := startPrimary(t, dir, addr, PrimaryConfig{})
	defer h2.close()
	for i := int64(300); i < 350; i++ {
		h2.m.Put(i, i)
	}
	waitConverge(t, h2.m, r)
}

func TestPromoteLiftsClockAndOpensWrites(t *testing.T) {
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0", PrimaryConfig{})
	defer h.close()
	for i := int64(0); i < 50; i++ {
		h.m.Put(i, i)
	}
	r := startReplica(t, h.addr())
	defer r.Close()
	waitConverge(t, h.m, r)

	be := r.Backend()
	write := []wire.Request{{Op: wire.OpInsert, Key: 999, Val: 1}}
	resps := make([]wire.Response, len(write))
	if err := be.Atomic(write, resps); err != server.ErrReadOnly {
		t.Fatalf("write before promotion = %v, want ErrReadOnly", err)
	}
	if err := be.Sync(); err != server.ErrReadOnly {
		t.Fatalf("Sync before promotion = %v, want ErrReadOnly", err)
	}
	w := r.Watermark()
	if got := be.(server.Watermarker).Watermark(); got != w {
		t.Fatalf("backend watermark %d != replica watermark %d", got, w)
	}
	if err := be.(server.Promoter).Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	// The clock floor keeps new stamps above everything applied.
	if next := r.Map().Runtime().Clock().Next(); next <= w {
		t.Fatalf("post-promotion stamp %d not above watermark %d", next, w)
	}
	if err := be.Atomic(write, resps); err != nil || !resps[0].Ok {
		t.Fatalf("write after promotion: ok=%v, %v", resps[0].Ok, err)
	}
	if v, ok := r.Map().Lookup(999); !ok || v != 1 {
		t.Fatalf("promoted write not visible: %d %v", v, ok)
	}
}

func TestPrimaryBackendWatermark(t *testing.T) {
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0", PrimaryConfig{})
	defer h.close()
	be := h.p.Backend(server.NewShardedBackend(h.m))
	h.m.Put(1, 1)
	w1 := be.(server.Watermarker).Watermark()
	h.m.Put(2, 2)
	w2 := be.(server.Watermarker).Watermark()
	if w1 == 0 || w2 < w1 {
		t.Fatalf("primary watermark not monotone: %d then %d", w1, w2)
	}
	if _, ok := be.(server.Promoter); ok {
		t.Fatal("primary backend must not be promotable")
	}
}

func TestNewPrimaryRequiresWAL(t *testing.T) {
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	defer m.Close()
	if p, err := NewPrimary(m, PrimaryConfig{}); err == nil || p != nil {
		t.Fatalf("NewPrimary on an in-memory map = %v, %v; want an error", p, err)
	}
}

func TestPromoteAfterPrimaryClockAheadNoAborts(t *testing.T) {
	// The primary's clock runs 1.5 s ahead of the replica's. After
	// promotion the replica's floor sits at the primary's last stamp; a
	// floor that clamped stamps to floor+1 (instead of offsetting the
	// clock) would tie every commit with the next read until the local
	// clock caught up, and each strict read would abort and retry.
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0", PrimaryConfig{})
	defer h.close()
	clock := h.m.Runtime().Clock()
	clock.Raise(clock.Read() + uint64(1500*time.Millisecond))
	for i := int64(0); i < 50; i++ {
		h.m.Put(i, i)
	}
	r := startReplica(t, h.addr())
	defer r.Close()
	waitConverge(t, h.m, r)
	if w := r.Watermark(); w < uint64(time.Second) {
		t.Fatalf("watermark %d: primary clock not ahead", w)
	}
	if err := r.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	m := r.Map()
	before := m.STMStats()
	for i := int64(0); i < 200; i++ {
		m.Put(i, -i)
		if v, ok := m.Lookup(i); !ok || v != -i {
			t.Fatalf("round %d: read-after-write got %d %v", i, v, ok)
		}
		m.Put(i, i+1)
	}
	d := m.STMStats().Sub(before)
	if d.Aborts != 0 || d.Commits < 400 {
		t.Fatalf("200 read-after-write rounds: %d aborts, %d commits; want 0 aborts", d.Aborts, d.Commits)
	}
}

// scriptedPrimary accepts replica connections on a loopback listener and
// runs script on each, in accept order. Cleanup closes the listener and
// waits for the scripts, which end when the replica hangs up.
func scriptedPrimary(t *testing.T, scripts ...func(fr *wire.FrameReader, send func(wire.ReplMsg))) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		for _, script := range scripts {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			send := func(m wire.ReplMsg) { nc.Write(wire.AppendReplMsg(nil, &m)) }
			script(wire.NewFrameReader(nc, wire.MaxRequestPayload), send)
			nc.Close()
		}
	}()
	return ln
}

// readFollow reads the replica's Follow request.
func readFollow(t *testing.T, fr *wire.FrameReader) wire.ReplMsg {
	payload, err := fr.Next()
	if err != nil {
		t.Errorf("read Follow: %v", err)
		return wire.ReplMsg{}
	}
	m, err := wire.ParseReplMsg(payload)
	if err != nil || m.Op != wire.OpFollow {
		t.Errorf("expected Follow, got %+v (%v)", m, err)
	}
	return m
}

// puts encodes pairs (key, value, key, value, ...) as an all-put op list.
func puts(kvs ...int64) (uint64, []byte) {
	ic := persist.Int64Codec()
	var ops []byte
	for i := 0; i < len(kvs); i += 2 {
		ops = persist.AppendPut(ops, ic, ic, kvs[i], kvs[i+1])
	}
	return uint64(len(kvs) / 2), ops
}

func TestResyncWatermarkRestartsInNewLineage(t *testing.T) {
	midResync := make(chan struct{})
	finish := make(chan struct{})
	ln := scriptedPrimary(t,
		// Epoch 1: keys 1..3, caught up at stamp 100.
		func(fr *wire.FrameReader, send func(wire.ReplMsg)) {
			readFollow(t, fr)
			send(wire.ReplMsg{Op: wire.OpFollow, Epoch: 1, Full: true})
			n, ops := puts(1, 10, 2, 20)
			send(wire.ReplMsg{Op: wire.OpSnapChunk, Stamp: 50, Count: n, Ops: ops})
			n, ops = puts(3, 30)
			send(wire.ReplMsg{Op: wire.OpWalRecord, Seq: 1, Stamp: 60, Count: n, Ops: ops})
			send(wire.ReplMsg{Op: wire.OpCaughtUp, Stamp: 100})
			fr.Next() // until the replica hangs up
		},
		// Epoch 2 (a restarted primary with other state): its stamps
		// start below the old lineage's watermark.
		func(fr *wire.FrameReader, send func(wire.ReplMsg)) {
			if f := readFollow(t, fr); f.Epoch != 1 || f.Seq != 1 {
				t.Errorf("replica resumes from (%d,%d), want (1,1)", f.Epoch, f.Seq)
			}
			send(wire.ReplMsg{Op: wire.OpFollow, Epoch: 2, Full: true})
			n, ops := puts(7, 70, 2, 21)
			send(wire.ReplMsg{Op: wire.OpSnapChunk, Stamp: 5, Count: n, Ops: ops})
			close(midResync)
			<-finish
			n, ops = puts(8, 80)
			send(wire.ReplMsg{Op: wire.OpWalRecord, Seq: 1, Stamp: 8, Count: n, Ops: ops})
			send(wire.ReplMsg{Op: wire.OpCaughtUp, Stamp: 20})
			fr.Next()
		})
	// Let the second script run out even when the test fails early.
	release := sync.OnceFunc(func() { close(finish) })
	t.Cleanup(release)

	r := startReplica(t, ln.Addr().String())
	defer r.Close()
	be := r.Backend().(server.Watermarker)
	if w := r.Watermark(); w != 100 {
		t.Fatalf("caught-up watermark %d, want 100", w)
	}
	for k, want := range map[int64]int64{1: 10, 2: 20, 3: 30} {
		if v, ok := r.Map().Lookup(k); !ok || v != want {
			t.Fatalf("epoch 1 key %d = %d %v, want %d", k, v, ok, want)
		}
	}

	// Cut the stream; the next connection is a full resync of epoch 2.
	r.mu.Lock()
	r.nc.Close()
	r.mu.Unlock()
	<-midResync
	deadline := time.Now().Add(10 * time.Second)
	for r.Stats().Resyncs < 2 {
		if time.Now().After(deadline) {
			t.Fatal("replica never started the second resync")
		}
		time.Sleep(time.Millisecond)
	}
	// Key 7 committed at stamp 5 in the new lineage and is not applied
	// yet, so no watermark may pass a barrier at 5.
	if w, bw := r.Watermark(), be.Watermark(); w != 0 || bw != 0 {
		t.Fatalf("mid-resync watermark %d (backend %d), want 0", w, bw)
	}
	if _, ok := r.Map().Lookup(7); ok {
		t.Fatal("mid-resync chunk applied before CaughtUp")
	}

	release()
	for r.Watermark() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second resync never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	if w := r.Watermark(); w != 20 {
		t.Fatalf("watermark after epoch-2 resync %d, want its CaughtUp stamp 20", w)
	}
	got := allPairs(r.Map())
	want := []skiphash.Pair[int64, int64]{{Key: 2, Val: 21}, {Key: 7, Val: 70}, {Key: 8, Val: 80}}
	if len(got) != len(want) {
		t.Fatalf("state after epoch-2 resync %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("state after epoch-2 resync %v, want %v", got, want)
		}
	}
}
