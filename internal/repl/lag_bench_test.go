package repl_test

import (
	"context"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/repl"
	"repro/skiphash"
)

// BenchmarkReplicationLag measures how long a committed write takes to
// reach a follower. One writer Puts on a durable primary with one
// follower, durable under the same fsync policy, attached over loopback
// TCP; each op times the gap from the
// Put's return until the follower's map shows the value, spinning on a
// lookup. lag-ns/op is the mean gap, lag-p50-ns its median, lag-p99-ns
// its 99th percentile and lag-max-ns the longest; ns/op adds the Put
// itself. It uses only the packages' public API.
func BenchmarkReplicationLag(b *testing.B) {
	for _, pol := range []struct {
		name  string
		fsync skiphash.FsyncPolicy
	}{{"fsync=none", skiphash.FsyncNone}, {"fsync=interval", skiphash.FsyncInterval}} {
		b.Run(pol.name, func(b *testing.B) {
			m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{
				Durability: &skiphash.Durability{Dir: b.TempDir(), Fsync: pol.fsync},
			}, skiphash.Int64Codec(), skiphash.Int64Codec())
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			p, err := repl.NewPrimary(m, repl.PrimaryConfig{})
			if err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go p.Serve(ln)
			defer p.Shutdown()
			r, err := repl.NewReplica(repl.ReplicaConfig{Addr: ln.Addr().String(), Map: skiphash.Config{
				Durability: &skiphash.Durability{Dir: b.TempDir(), Fsync: pol.fsync},
			}})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := r.WaitReady(ctx); err != nil {
				b.Fatal(err)
			}
			lags := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range lags {
				k, v := int64(i%1024), int64(i)
				m.Put(k, v)
				t0 := time.Now()
				for {
					if got, ok := r.Map().Lookup(k); ok && got == v {
						break
					}
					runtime.Gosched()
				}
				lags[i] = time.Since(t0)
			}
			b.StopTimer()
			var sum time.Duration
			for _, d := range lags {
				sum += d
			}
			slices.Sort(lags)
			b.ReportMetric(float64(sum.Nanoseconds())/float64(b.N), "lag-ns/op")
			b.ReportMetric(float64(lags[b.N/2].Nanoseconds()), "lag-p50-ns")
			b.ReportMetric(float64(lags[b.N*99/100].Nanoseconds()), "lag-p99-ns")
			b.ReportMetric(float64(lags[b.N-1].Nanoseconds()), "lag-max-ns")
		})
	}
}

// BenchmarkFullResync measures a follower's full resync of a primary
// holding 10^6 keys. Each op starts a fresh replica over an empty
// directory and waits until it has caught up: ns/op is that wait, and
// heap-B/op the bytes the process allocated meanwhile, at both ends of
// the stream.
func BenchmarkFullResync(b *testing.B) {
	const keys, batch = 1_000_000, 1000
	m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{
		Durability: &skiphash.Durability{Dir: b.TempDir(), Fsync: skiphash.FsyncNone},
	}, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	for lo := int64(0); lo < keys; lo += batch {
		m.Atomic(func(tx *skiphash.Txn[int64, int64]) error {
			for k := lo; k < lo+batch; k++ {
				tx.Put(k, k)
			}
			return nil
		})
	}
	p, err := repl.NewPrimary(m, repl.PrimaryConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go p.Serve(ln)
	defer p.Shutdown()
	var heap uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		r, err := repl.NewReplica(repl.ReplicaConfig{Addr: ln.Addr().String(), Map: skiphash.Config{
			Durability: &skiphash.Durability{Dir: dir, Fsync: skiphash.FsyncNone},
		}})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		err = r.WaitReady(ctx)
		cancel()
		b.StopTimer()
		runtime.ReadMemStats(&after)
		heap += after.TotalAlloc - before.TotalAlloc
		if err != nil {
			b.Fatal(err)
		}
		if n := r.Map().SizeSlow(); n != keys {
			b.Fatalf("replica holds %d keys, want %d", n, keys)
		}
		r.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(heap)/float64(b.N), "heap-B/op")
}
