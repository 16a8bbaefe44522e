package repl

import (
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/server"
	"repro/skiphash"
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
func servePrimary(t *testing.T, m *skiphash.Map[int64, int64]) (*Primary, string) {
	t.Helper()
	p, err := NewPrimary(m, PrimaryConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go p.Serve(ln)
	return p, ln.Addr().String()
}

func TestTwoPrimariesOneMap(t *testing.T) {
	// Two primaries serve one map. Each one's follower must converge,
	// and neither follower's watermark may pass a commit it has not
	// applied: a watermark above a barrier taken after a commit promises
	// that commit.
	m := openDurable(t, skiphash.FsyncNone)
	defer m.Close()
	p1, addr1 := servePrimary(t, m)
	defer p1.Shutdown()
	p2, addr2 := servePrimary(t, m)
	defer p2.Shutdown()
	r1 := startReplica(t, addr1)
	defer r1.Close()
	r2 := startReplica(t, addr2)
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
			p, _ := servePrimary(t, m)
			defer p.Shutdown()
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
