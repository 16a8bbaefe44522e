package repl

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/skiphash"
	"repro/skiphash/client"
)

// openDurable opens a durable int64 map over a fresh directory.
func openDurable(t *testing.T, fsync skiphash.FsyncPolicy) *skiphash.Map[int64, int64] {
	t.Helper()
	m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{
		Durability: &skiphash.Durability{Dir: t.TempDir(), Fsync: fsync, SnapshotBytes: -1},
	}, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m
}

// servePrimary attaches a primary to m and serves it on a fresh port.
func servePrimary(t *testing.T, m *skiphash.Map[int64, int64]) (*Primary, *served) {
	t.Helper()
	p, err := NewPrimary(m)
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}
	return p, serveBackend(t, p.Backend(server.NewShardedBackend(m)), "127.0.0.1:0", server.Config{Logf: t.Logf})
}

func TestTwoPrimariesOneMap(t *testing.T) {
	// Two primaries serve one map. Each one's follower must converge,
	// and neither follower's watermark may pass a commit it has not
	// applied: a watermark above a barrier taken after a commit promises
	// that commit.
	m := openDurable(t, skiphash.FsyncNone)
	defer m.Close()
	p1, s1 := servePrimary(t, m)
	defer s1.shutdown()
	_, s2 := servePrimary(t, m)
	defer s2.shutdown()
	r1 := startReplica(t, s1.addr())
	defer r1.Close()
	r2 := startReplica(t, s2.addr())
	defer r2.Close()

	const pairs = 50
	be := p1.Backend(server.NewShardedBackend(m)).(server.Watermarker)
	var barrier [pairs]uint64
	for i := range barrier {
		m.Put(int64(i), int64(i)*10)
		barrier[i] = be.Watermark()
	}
	// check fails when r's watermark covers a commit r lacks.
	check := func(name string, r *Replica) {
		w := r.Watermark()
		for i, x := range barrier {
			if x >= w {
				continue
			}
			if v, ok := r.Map().Lookup(int64(i)); !ok || v != int64(i)*10 {
				t.Fatalf("%s: watermark %d passes the barrier %d of key %d, which it lacks (%d, %v)",
					name, w, x, i, v, ok)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		check("follower of the first primary", r1)
		check("follower of the second primary", r2)
		n1, n2 := len(allPairs(r1.Map())), len(allPairs(r2.Map()))
		if n1 == pairs && n2 == pairs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers hold %d and %d of %d pairs", n1, n2, pairs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitConverge(t, m, r1)
	waitConverge(t, m, r2)
}

// rawFollow sends Follow (epoch, position 0) to the server at addr on a
// connection of its own and checks the StatusOK response. next returns
// the stream's messages, failing the test on any error or after 20 s.
func rawFollow(t *testing.T, addr string, epoch uint64) (next func() wire.ReplMsg) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	follow := wire.Request{ID: 1, Op: wire.OpFollow, Key: int64(epoch)}
	if _, err := nc.Write(wire.AppendRequest(nil, &follow)); err != nil {
		t.Fatalf("write Follow: %v", err)
	}
	fr := wire.NewFrameReader(nc, wire.MaxResponsePayload)
	payload, err := fr.Next()
	if err != nil {
		t.Fatalf("read Follow response: %v", err)
	}
	if resp, err := wire.ParseResponse(payload); err != nil || resp.Err() != nil {
		t.Fatalf("Follow response %+v (%v)", resp, err)
	}
	return func() wire.ReplMsg {
		t.Helper()
		payload, err := fr.Next()
		if err != nil {
			t.Fatalf("read stream: %v", err)
		}
		m, err := wire.ParseReplMsg(payload)
		if err != nil {
			t.Fatalf("stream message: %v", err)
		}
		return m
	}
}

// writeWithoutPause puts to m from one goroutine until stop is called.
func writeWithoutPause(m *skiphash.Map[int64, int64]) (stop func()) {
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for i := int64(0); ; i++ {
			select {
			case <-done:
				return
			default:
			}
			m.Put(i%4096, i)
		}
	}()
	return sync.OnceFunc(func() {
		close(done)
		<-stopped
	})
}

// openLoaded opens a primary on addr whose log no snapshot truncates.
func openLoaded(t *testing.T, addr string) *primaryHarness {
	t.Helper()
	return openPrimary(t, skiphash.Durability{Dir: t.TempDir(), Fsync: skiphash.FsyncNone, SnapshotBytes: -1}, addr)
}

func TestIdleStreamEndsCatchUpWithOneHeartbeat(t *testing.T) {
	// A raw follower of an idle primary that holds some writes reads the
	// Follow header, the WalRecord runs that carry the whole log, and one
	// Heartbeat whose stamp covers them. Nothing else arrives until the
	// next tick: catch-up ends at that Heartbeat, with no second message
	// ending it again.
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0")
	defer h.close()
	for i := int64(0); i < 50; i++ {
		h.m.Put(i, i)
	}
	end := h.m.Persister().(*persist.Store[int64, int64]).Stats().AppendedBytes
	start := time.Now() // before the sender's ticker starts
	next := rawFollow(t, h.addr(), h.p.Epoch())
	if hdr := next(); hdr.Op != wire.OpFollow || hdr.Full || hdr.Seq != 0 {
		t.Fatalf("stream header %+v, want a tail from position 0", hdr)
	}
	var pos, maxStamp uint64
	m := next()
	for ; m.Op == wire.OpWalRecord; m = next() {
		if m.Seq != pos {
			t.Fatalf("run at %d, want %d", m.Seq, pos)
		}
		pos += uint64(len(m.Data))
		persist.WalkFrames(m.Data, func(_ int64, stamp, _ uint64, _ []byte) error {
			maxStamp = max(maxStamp, stamp)
			return nil
		})
	}
	if m.Op != wire.OpHeartbeat || pos != uint64(end) || m.Stamp < maxStamp {
		t.Fatalf("after runs up to %d of %d: %s stamp %d, want a Heartbeat covering stamp %d",
			pos, end, m.Op, m.Stamp, maxStamp)
	}
	if m2 := next(); m2.Op != wire.OpHeartbeat || m2.Stamp < m.Stamp {
		t.Fatalf("second message %s stamp %d, want a Heartbeat at >= %d", m2.Op, m2.Stamp, m.Stamp)
	}
	if d := time.Since(start); d < heartbeatEvery {
		t.Fatalf("second Heartbeat %v after Follow, before the first tick at %v", d, heartbeatEvery)
	}
}

func TestSlowFollowerCatchUpEndsUnderLoad(t *testing.T) {
	// A follower that reads slower than one goroutine writes still gets
	// its first Heartbeat: the first burst stops at the log end captured
	// when it began, however far the log has grown since. The log already
	// holds more than the socket buffers take when the follower starts,
	// so the sender is behind from its first write on. (Under the race
	// detector the writer is slower than the follower, and a smaller log
	// keeps the test short.)
	h := openLoaded(t, "127.0.0.1:0")
	defer h.close()
	stop := writeWithoutPause(h.m)
	defer stop()
	st := h.m.Persister().(*persist.Store[int64, int64])
	behind := int64(8 << 20)
	if alloctest.RaceEnabled {
		behind = 1 << 20
	}
	for st.Stats().AppendedBytes < behind {
		time.Sleep(time.Millisecond)
	}
	next := rawFollow(t, h.addr(), h.p.Epoch())
	next() // the stream header
	deadline := time.Now().Add(10 * time.Second)
	for m := next(); m.Op != wire.OpHeartbeat; m = next() {
		if time.Now().After(deadline) {
			t.Fatalf("no Heartbeat within 10 s; the stream is at position %d of %d", m.Seq, st.Stats().AppendedBytes)
		}
		time.Sleep(5 * time.Millisecond) // at most 64 KiB per 5 ms
	}
}

func TestCatchUpBoundedUnderLoad(t *testing.T) {
	// One goroutine writes to the primary without pause. A fresh replica
	// still becomes ready within 5 s. Then a new primary incarnation on
	// the same address, also written without pause, forces a full resync
	// against the stale epoch, and it swaps in. Both converge once the
	// writer stops.
	h := openLoaded(t, "127.0.0.1:0")
	stop := writeWithoutPause(h.m)
	defer stop()
	r := newReplica(t, h.addr(), t.TempDir())
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.WaitReady(ctx); err != nil {
		t.Fatalf("fresh replica not ready within 5 s under load: %v", err)
	}
	stop()
	waitConverge(t, h.m, r)
	addr := h.addr()
	h.close()

	h = openLoaded(t, addr)
	defer h.close()
	stop = writeWithoutPause(h.m)
	defer stop()
	rs0 := r.Stats().Resyncs
	// The watermark is stored 0 before Resyncs counts the resync, so a
	// nonzero one read after the count comes from the swap.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if s := r.Stats(); s.Resyncs == rs0+1 && s.Watermark != 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no full resync swapped in within 5 s under load: %+v", r.Stats())
		}
	}
	stop()
	waitConverge(t, h.m, r)
	if s := r.Stats(); s.Resyncs != rs0+1 || s.EpochChanges != 1 {
		t.Fatalf("replica stats %+v, want one more full resync and one epoch change", s)
	}
}

func TestPrimaryCommitAllocBudget(t *testing.T) {
	// A primary with no follower adds nothing to a durable Put: the
	// commit path is the same whether or not one is attached.
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	const keys = 1 << 14
	measure := func(attach bool) float64 {
		m := openDurable(t, skiphash.FsyncInterval)
		defer m.Close()
		if attach {
			_, s := servePrimary(t, m)
			defer s.shutdown()
		}
		i := int64(0)
		put := func() {
			m.Put(i%keys, i)
			i++
		}
		for i < 2*keys { // present keys, warm op buffer and WAL arrays
			put()
		}
		return alloctest.PerOp(20000, put)
	}
	without := measure(false)
	with := measure(true)
	if with > 1.01 || math.Abs(with-without) > 0.01 {
		t.Fatalf("durable Put allocates %.3f/op with a primary attached and %.3f/op without; want equal, at most 1.01",
			with, without)
	}
}

func TestFollowerSharesServingListener(t *testing.T) {
	// One listener serves a client's requests and a follower's stream at
	// once. The stream outlives the server's write timeout by more than a
	// second, barriered reads are served by the follower, and the
	// request-latency histogram never observes the stream.
	const writeTimeout = 200 * time.Millisecond
	m := openDurable(t, skiphash.FsyncNone)
	defer m.Close()
	p, err := NewPrimary(m)
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}
	reg := obs.NewRegistry()
	s := serveBackend(t, p.Backend(server.NewShardedBackend(m)), "127.0.0.1:0",
		server.Config{WriteTimeout: writeTimeout, Obs: reg, Logf: t.Logf})
	defer s.shutdown()
	cl, err := client.Dial(s.addr(), client.Options{})
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer cl.Close()
	for k := int64(0); k < 100; k++ {
		if _, err := cl.Put(k, k*10); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	r := startReplica(t, s.addr())
	defer r.Close()
	rs := serveBackend(t, r.Backend(), "127.0.0.1:0", server.Config{Logf: t.Logf})
	defer rs.shutdown()
	// The follower is this client's only server: GetAt is served there.
	rc, err := client.Dial(rs.addr(), client.Options{Replicas: []string{rs.addr()}})
	if err != nil {
		t.Fatalf("dial replica: %v", err)
	}
	defer rc.Close()

	accepted := s.ln.accepted()
	start := time.Now()
	for k := int64(1000); time.Since(start) < writeTimeout+1200*time.Millisecond; k++ {
		if _, err := cl.Put(k, -k); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if v, ok, err := cl.Get(k); err != nil || !ok || v != -k {
			t.Fatalf("Get(%d) = %d %v %v", k, v, ok, err)
		}
		x, err := cl.Watermark()
		if err != nil {
			t.Fatalf("Watermark: %v", err)
		}
		for deadline := time.Now().Add(10 * time.Second); r.Watermark() <= x; {
			if time.Now().After(deadline) {
				t.Fatalf("follower watermark %d never passed %d", r.Watermark(), x)
			}
			time.Sleep(time.Millisecond)
		}
		if v, ok, err := rc.GetAt(k, x); err != nil || !ok || v != -k {
			t.Fatalf("GetAt(%d, %d) on the follower = %d %v %v", k, x, v, ok, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	streamed := time.Since(start)
	if n := s.ln.accepted(); n != accepted {
		t.Fatalf("the follower redialed: %d connections accepted, %d before", n, accepted)
	}
	if st := p.Stats(); st.Followers != 1 || st.Resyncs != 1 {
		t.Fatalf("primary stats %+v, want one follower and its one full resync", st)
	}
	waitConverge(t, m, r)

	if err := s.shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	var count, sum float64
	for _, smp := range reg.Samples() {
		switch {
		case smp.Labels != `{ns="default"}`:
		case smp.Name == "skiphash_server_request_seconds_count":
			count = smp.Value
		case smp.Name == "skiphash_server_request_seconds_sum":
			sum = smp.Value
		}
	}
	if count == 0 || sum >= streamed.Seconds() {
		t.Fatalf("request latency: %v observations summing to %.3f s, the stream lived %v; want none as long as the stream",
			count, sum, streamed)
	}
}

func TestShutdownEndsFollowerStreams(t *testing.T) {
	// A follower's stream never reads, so no read deadline ends it:
	// Shutdown closes it when the drain starts and returns at once.
	h := startPrimary(t, t.TempDir(), "127.0.0.1:0")
	defer h.m.Close()
	for i := int64(0); i < 100; i++ {
		h.m.Put(i, i)
	}
	r := startReplica(t, h.addr())
	defer r.Close()
	if n := h.p.Stats().Followers; n != 1 {
		t.Fatalf("%d followers after catch-up, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := h.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("Shutdown with a live follower took %v", d)
	}
	if n := h.p.Stats().Followers; n != 0 {
		t.Fatalf("%d followers after Shutdown, want 0", n)
	}
}

func TestFollowRefusedWithoutStream(t *testing.T) {
	// A Follow sent to a server whose namespace 0 does not stream its log
	// is answered with an error status, and the connection keeps serving.
	mem := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	defer mem.Close()
	r := newReplica(t, "127.0.0.1:1", t.TempDir()) // never caught up, never promoted
	defer r.Close()
	for _, c := range []struct {
		name string
		be   server.Backend
	}{
		{"an in-memory map", server.NewShardedBackend(mem)},
		{"an unpromoted replica", r.Backend()},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := serveBackend(t, c.be, "127.0.0.1:0", server.Config{Logf: t.Logf})
			defer s.shutdown()
			nc, err := net.Dial("tcp", s.addr())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer nc.Close()
			fr := wire.NewFrameReader(nc, wire.MaxResponsePayload)
			do := func(req wire.Request) wire.Response {
				t.Helper()
				if _, err := nc.Write(wire.AppendRequest(nil, &req)); err != nil {
					t.Fatalf("write %s: %v", req.Op, err)
				}
				payload, err := fr.Next()
				if err != nil {
					t.Fatalf("read %s response: %v", req.Op, err)
				}
				resp, err := wire.ParseResponse(payload)
				if err != nil || resp.ID != req.ID || resp.Op != req.Op {
					t.Fatalf("%s response %+v (%v)", req.Op, resp, err)
				}
				return resp
			}
			if resp := do(wire.Request{ID: 1, Op: wire.OpFollow}); resp.Status != wire.StatusErr {
				t.Fatalf("Follow answered %s %q, want Err", resp.Status, resp.Msg)
			}
			if resp := do(wire.Request{ID: 2, Op: wire.OpPing}); resp.Status != wire.StatusOK {
				t.Fatalf("Ping after a refused Follow answered %s %q", resp.Status, resp.Msg)
			}
		})
	}
}
