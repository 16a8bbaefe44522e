package repl

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/stm"
	"repro/internal/wire"
	"repro/skiphash"
)

// served is one server.Server on a loopback TCP listener.
type served struct {
	srv *server.Server
	ln  *trackedListener
}

// trackedListener keeps the connections it accepts, so a test can cut
// them while the server keeps serving.
type trackedListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, nc)
		l.mu.Unlock()
	}
	return nc, err
}

// accepted counts the connections accepted so far.
func (l *trackedListener) accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// serveBackend serves be as namespace 0 of a new server on addr
// ("127.0.0.1:0" for a fresh port).
func serveBackend(t testing.TB, be server.Backend, addr string, cfg server.Config) *served {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &served{srv: server.New(be, cfg), ln: &trackedListener{Listener: ln}}
	go s.srv.Serve(s.ln)
	return s
}

func (s *served) addr() string { return s.ln.Addr().String() }

// shutdown drains the server; its followers' streams end at once.
func (s *served) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// dropConns closes every connection the server accepted so far while
// its listener keeps serving; followers redial and resume from their
// log position, with no snapshot unless one has truncated it.
func (s *served) dropConns() {
	s.ln.mu.Lock()
	for _, nc := range s.ln.conns {
		nc.Close()
	}
	s.ln.mu.Unlock()
}

// pause closes the listener and the connections, so followers stay
// dark until resume.
func (s *served) pause() {
	s.ln.Close()
	s.dropConns()
}

// resume serves again on the paused listener's address.
func (s *served) resume(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", s.addr())
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	s.ln = &trackedListener{Listener: ln}
	go s.srv.Serve(s.ln)
}

// primaryHarness is one durable primary map served with its WAL
// streamed to whoever sends Follow.
type primaryHarness struct {
	*served
	m *skiphash.Map[int64, int64]
	p *Primary
}

func (h *primaryHarness) close() {
	h.shutdown()
	h.m.Close()
}

// startPrimary opens a durable map over dir and serves it on addr
// ("127.0.0.1:0" for a fresh port).
func startPrimary(t *testing.T, dir, addr string) *primaryHarness {
	t.Helper()
	return openPrimary(t, skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncNone}, addr)
}

// openPrimary is startPrimary with the durability options spelled out.
func openPrimary(t *testing.T, d skiphash.Durability, addr string) *primaryHarness {
	t.Helper()
	m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{
		Durability: &d,
	}, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p, err := NewPrimary(m)
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}
	s := serveBackend(t, p.Backend(server.NewShardedBackend(m)), addr, server.Config{Logf: t.Logf})
	return &primaryHarness{served: s, m: m, p: p}
}

// newReplica starts a replica over dir, following addr.
func newReplica(t *testing.T, addr, dir string) *Replica {
	t.Helper()
	r, err := NewReplica(ReplicaConfig{
		Addr:        addr,
		Map:         skiphash.Config{Durability: &skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncNone}},
		RedialEvery: 20 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	return r
}

// startReplica starts a replica over a fresh directory and waits for it
// to catch up.
func startReplica(t *testing.T, addr string) *Replica {
	t.Helper()
	return startReplicaIn(t, addr, t.TempDir())
}

// startReplicaIn is startReplica over dir.
func startReplicaIn(t *testing.T, addr, dir string) *Replica {
	t.Helper()
	r := newReplica(t, addr, dir)
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
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0")
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
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0")
	defer h.close()
	for i := int64(0); i < 200; i++ {
		h.m.Put(i, i)
	}
	r := startReplica(t, h.addr())
	defer r.Close()
	waitConverge(t, h.m, r)
	// Cut every follower; writes continue while the replica is dark.
	h.dropConns()
	for i := int64(200); i < 400; i++ {
		h.m.Put(i, i)
	}
	waitConverge(t, h.m, r)
}

// walSegments counts the WAL segment files in dir.
func walSegments(dir string) int {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	return len(segs)
}

// writeUntilSealed runs four writers over fresh keys from base until dir
// holds sealed more segment files than it did, and returns the first key
// not written.
func writeUntilSealed(t *testing.T, m *skiphash.Map[int64, int64], dir string, base int64, sealed int) int64 {
	t.Helper()
	const writers = 4
	target := walSegments(dir) + sealed
	var next atomic.Int64
	next.Store(base)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for walSegments(dir) < target {
				for i := 0; i < 64; i++ {
					k := next.Add(1) - 1
					m.Put(k, k*7)
				}
			}
		}()
	}
	wg.Wait()
	return next.Load()
}

func TestReplicaCatchUpAcrossSealedSegments(t *testing.T) {
	// A follower dropped while concurrent writers seal eight segments
	// catches up by reading them back: the log is the stream, and no
	// snapshot truncates it here, so neither end counts a resync.
	dir := t.TempDir()
	h := openPrimary(t, skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncNone,
		SegmentBytes: 4 << 10, SnapshotBytes: -1}, "127.0.0.1:0")
	defer h.close()
	for i := int64(0); i < 100; i++ {
		h.m.Put(i, i)
	}
	r := startReplica(t, h.addr())
	defer r.Close()
	waitConverge(t, h.m, r)
	ps0, rs0 := h.p.Stats().Resyncs, r.Stats().Resyncs

	h.pause()
	next := writeUntilSealed(t, h.m, dir, 1000, 8+1)
	// Resume under load, so catch-up crosses rotations and the flush's
	// in-flight window while the log still grows.
	h.resume(t)
	writeUntilSealed(t, h.m, dir, next, 2)
	waitConverge(t, h.m, r)
	if ps, rs := h.p.Stats().Resyncs, r.Stats().Resyncs; ps != ps0 || rs != rs0 {
		t.Fatalf("resyncs went from %d/%d to %d/%d (primary/replica); want no full resync", ps0, rs0, ps, rs)
	}
}

func TestReplicaResyncAfterTruncation(t *testing.T) {
	// A snapshot that truncates the segment holding a dark follower's
	// position forces exactly one more full resync on its redial, and
	// the follower still converges.
	dir := t.TempDir()
	h := openPrimary(t, skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncNone,
		SegmentBytes: 4 << 10, SnapshotBytes: -1}, "127.0.0.1:0")
	defer h.close()
	for i := int64(0); i < 100; i++ {
		h.m.Put(i, i)
	}
	r := startReplica(t, h.addr())
	defer r.Close()
	waitConverge(t, h.m, r)
	ps0, rs0 := h.p.Stats().Resyncs, r.Stats().Resyncs

	h.pause()
	writeUntilSealed(t, h.m, dir, 1000, 4)
	before := walSegments(dir)
	if err := h.m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if after := walSegments(dir); after >= before {
		t.Fatalf("snapshot left %d of %d segments; want truncation", after, before)
	}
	for i := int64(0); i < 50; i++ {
		h.m.Remove(i)
	}
	h.resume(t)
	waitConverge(t, h.m, r)
	if ps, rs := h.p.Stats().Resyncs, r.Stats().Resyncs; ps != ps0+1 || rs != rs0+1 {
		t.Fatalf("resyncs went from %d/%d to %d/%d (primary/replica); want exactly one more", ps0, rs0, ps, rs)
	}
}

func TestEpochChangeForcesFullResync(t *testing.T) {
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0")
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
	h2 := startPrimary(t, t.TempDir(), addr)
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
	h := startPrimary(t, dir, "127.0.0.1:0")
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
	h2 := startPrimary(t, dir, addr)
	defer h2.close()
	for i := int64(300); i < 350; i++ {
		h2.m.Put(i, i)
	}
	waitConverge(t, h2.m, r)
}

func TestPromoteLiftsClockAndOpensWrites(t *testing.T) {
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0")
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
	if n, err := be.Atomic(write, resps); err != server.ErrReadOnly || n != 0 {
		t.Fatalf("write before promotion = %d retries, %v; want 0, ErrReadOnly", n, err)
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
	// The backend passes the map's retries through: every transaction's
	// first attempt aborts at its commit, so the write commits on its
	// second run.
	r.Map().Runtime().SetHooks(abortFirstCommit{})
	n, err := be.Atomic(write, resps)
	r.Map().Runtime().SetHooks(nil)
	if err != nil || !resps[0].Ok || n != 1 {
		t.Fatalf("write after promotion: ok=%v, %d retries, %v; want 1 retry", resps[0].Ok, n, err)
	}
	if v, ok := r.Map().Lookup(999); !ok || v != 1 {
		t.Fatalf("promoted write not visible: %d %v", v, ok)
	}
	// The promoted node's own writes are above the applied watermark, so
	// its Watermark must pass them.
	if got := be.(server.Watermarker).Watermark(); got <= w {
		t.Fatalf("backend watermark %d after a promoted write, want above %d", got, w)
	}
}

// abortFirstCommit aborts each transaction's first attempt at its commit
// point, so every transaction retries exactly once.
type abortFirstCommit struct{}

func (abortFirstCommit) OnPoint(p stm.Point, _ uint64, attempt int) bool {
	return p != stm.PointCommit || attempt > 0
}

func TestPrimaryBackendWatermark(t *testing.T) {
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0")
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
	if p, err := NewPrimary(m); err == nil || p != nil {
		t.Fatalf("NewPrimary on an in-memory map = %v, %v; want an error", p, err)
	}
}

func TestPromoteAfterPrimaryClockAheadNoAborts(t *testing.T) {
	// The primary's clock runs 1.5 s ahead of the replica's. After
	// promotion the replica's floor sits at the primary's last stamp; a
	// floor that clamped stamps to floor+1 (instead of offsetting the
	// clock) would tie every commit with the next read until the local
	// clock caught up, and each strict read would abort and retry.
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0")
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
			// A server answers Follow StatusOK before the stream starts.
			answered := false
			send := func(m wire.ReplMsg) {
				if !answered {
					nc.Write(wire.AppendResponse(nil, &wire.Response{ID: 1, Op: wire.OpFollow}))
					answered = true
				}
				nc.Write(wire.AppendReplMsg(nil, &m))
			}
			script(wire.NewFrameReader(nc, wire.MaxRequestPayload), send)
			nc.Close()
		}
	}()
	return ln
}

// readFollow reads the replica's Follow request, returning the epoch
// and log position it resumes from as a ReplMsg's Epoch and Seq.
func readFollow(t *testing.T, fr *wire.FrameReader) wire.ReplMsg {
	payload, err := fr.Next()
	if err != nil {
		t.Errorf("read Follow: %v", err)
		return wire.ReplMsg{}
	}
	req, err := wire.ParseRequest(payload)
	if err != nil || req.Op != wire.OpFollow {
		t.Errorf("expected Follow, got %+v (%v)", req, err)
	}
	return wire.ReplMsg{Op: wire.OpFollow, Epoch: uint64(req.Key), Seq: uint64(req.Val)}
}

// puts encodes pairs (key, value, key, value, ...) as an all-put op
// list, as a store logs puts: [kind 1][key][value] per op.
func puts(kvs ...int64) (uint64, []byte) {
	ic := persist.Int64Codec()
	var ops []byte
	for i := 0; i < len(kvs); i += 2 {
		ops = ic.Append(ic.Append(append(ops, 1), kvs[i]), kvs[i+1])
	}
	return uint64(len(kvs) / 2), ops
}

// chunk is one snapshot chunk read at stamp: pairs (key, value, key,
// value, ...).
type chunk struct {
	stamp uint64
	kvs   []int64
}

// snapFile encodes chunks as one snapshot file, the bytes a primary's
// full resync streams.
func snapFile(chunks ...chunk) []byte {
	var b bytes.Buffer
	ic := persist.Int64Codec()
	persist.WriteSnapshot(&b, func(_ int, emit func(uint64, []persist.KV[int64, int64]) error) error {
		for _, c := range chunks {
			var pairs []persist.KV[int64, int64]
			for i := 0; i < len(c.kvs); i += 2 {
				pairs = append(pairs, persist.KV[int64, int64]{Key: c.kvs[i], Val: c.kvs[i+1]})
			}
			if err := emit(c.stamp, pairs); err != nil {
				return err
			}
		}
		return nil
	}, ic, ic)
	return b.Bytes()
}

// walFrame encodes one WAL record frame as a store writes it and a
// WalRecord carries it: [u32 payload length][u32 CRC-32C of payload]
// [u64 stamp][uvarint count][ops].
func walFrame(stamp, count uint64, ops []byte) []byte {
	payload := binary.LittleEndian.AppendUint64(nil, stamp)
	payload = binary.AppendUvarint(payload, count)
	payload = append(payload, ops...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(frame, payload...)
}

// putFrame is walFrame over an all-put op list.
func putFrame(stamp uint64, kvs ...int64) []byte {
	n, ops := puts(kvs...)
	return walFrame(stamp, n, ops)
}

func TestResyncWatermarkRestartsInNewLineage(t *testing.T) {
	midResync := make(chan struct{})
	finish := make(chan struct{})
	ln := scriptedPrimary(t,
		// Epoch 1: keys 1..3, caught up at stamp 100.
		func(fr *wire.FrameReader, send func(wire.ReplMsg)) {
			readFollow(t, fr)
			send(wire.ReplMsg{Op: wire.OpFollow, Epoch: 1, Full: true})
			send(wire.ReplMsg{Op: wire.OpSnapChunk, Data: snapFile(chunk{50, []int64{1, 10, 2, 20}})})
			send(wire.ReplMsg{Op: wire.OpWalRecord, Seq: 0, Data: putFrame(60, 3, 30)})
			send(wire.ReplMsg{Op: wire.OpHeartbeat, Stamp: 100})
			fr.Next() // until the replica hangs up
		},
		// Epoch 2 (a restarted primary with other state): its stamps
		// start below the old lineage's watermark.
		func(fr *wire.FrameReader, send func(wire.ReplMsg)) {
			if f, pos := readFollow(t, fr), uint64(len(putFrame(60, 3, 30))); f.Epoch != 1 || f.Seq != pos {
				t.Errorf("replica resumes from (%d,%d), want (1,%d)", f.Epoch, f.Seq, pos)
			}
			send(wire.ReplMsg{Op: wire.OpFollow, Epoch: 2, Full: true})
			send(wire.ReplMsg{Op: wire.OpSnapChunk, Data: snapFile(chunk{5, []int64{7, 70, 2, 21}})})
			close(midResync)
			<-finish
			send(wire.ReplMsg{Op: wire.OpWalRecord, Seq: 0, Data: putFrame(8, 8, 80)})
			send(wire.ReplMsg{Op: wire.OpHeartbeat, Stamp: 20})
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
		t.Fatal("mid-resync chunk applied before the first Heartbeat")
	}

	release()
	for r.Watermark() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second resync never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	if w := r.Watermark(); w != 20 {
		t.Fatalf("watermark after epoch-2 resync %d, want its first Heartbeat stamp 20", w)
	}
	// The primary stamp restarts with the lineage too, so the lag it
	// reports is measured within epoch 2, not against epoch 1's 100.
	if p := r.Stats().PrimaryStamp; p != 20 {
		t.Fatalf("primary stamp after epoch-2 resync %d, want 20", p)
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
