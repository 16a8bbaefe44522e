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
// follower attached over loopback TCP; each op times the gap from the
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
			r := repl.NewReplica(repl.ReplicaConfig{Addr: ln.Addr().String()})
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
