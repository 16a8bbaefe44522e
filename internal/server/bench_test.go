package server

import (
	"bufio"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/skiphash"
)

// cycleFamilies are the two frame families the drain-cycle benchmarks
// and the allocation pins run over: v1 int64 ops against namespace 0,
// v2 16-byte keys and 8-byte values against a named namespace.
var cycleFamilies = []struct {
	name string
	v2   bool
}{{"v1", false}, {"v2", true}}

const cycleKeys = 1024

func cycleKey(k int) []byte { return []byte(fmt.Sprintf("key-%012d", k)) }

// cycleConn builds an executor-side conn over a discarding writer, so a
// benchmark can drive drain cycles (execute + encode) without sockets,
// and one 64-request cycle for the family: pure Gets, or with mixed every
// fourth request a Put so the run coalesces into one Atomic transaction.
// o picks what the connection observes with (see cycleObs).
func cycleConn(tb testing.TB, v2, mixed bool, o cycleObs) (*conn, []wire.Request) {
	tb.Helper()
	mapCfg := skiphash.Config{}
	m, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, mapCfg, skiphash.Int64Codec(), skiphash.Int64Codec())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() })
	var cfg Config
	if o != cycleBare {
		cfg.Tracer = obs.NewTracer(16)
		cfg.Tracer.SetThreshold(time.Hour) // armed, never matched
	}
	if o == cycleMetrics {
		cfg.Obs = obs.NewRegistry()
	}
	reg, err := NewRegistry(RegistryConfig{Map: mapCfg, Obs: cfg.Obs})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { reg.CloseAll() })
	ns, err := reg.Create("bench", false, wire.NsFsyncDefault)
	if err != nil {
		tb.Fatal(err)
	}
	c := NewWithRegistry(NewShardedBackend(m), reg, cfg).newConn(nil)
	c.bw = bufio.NewWriterSize(io.Discard, 64<<10)

	fill := make([]wire.Request, cycleKeys)
	for k := range fill {
		fill[k] = wire.Request{Op: wire.OpInsert, Key: int64(k), Val: int64(k)}
		if v2 {
			fill[k] = wire.Request{Op: wire.OpInsert2, NS: ns.id, BKey: cycleKey(k), BVal: []byte("00000000")}
		}
	}
	for len(fill) > 0 {
		n := min(len(fill), len(c.resps))
		c.execute(fill[:n])
		fill = fill[n:]
	}

	batch := make([]wire.Request, 64)
	for i := range batch {
		req := wire.Request{ID: uint64(i), Op: wire.OpGet, Key: int64(i)}
		if mixed && i%4 == 0 {
			req.Op, req.Val = wire.OpPut, int64(i)
		}
		if v2 {
			req = wire.Request{ID: uint64(i), Op: wire.OpGet2, NS: ns.id, BKey: cycleKey(i)}
			if mixed && i%4 == 0 {
				req.Op, req.BVal = wire.OpPut2, []byte("11111111")
			}
		}
		batch[i] = req
	}
	return c, batch
}

// cycleObs is what a cycle's connection observes with: nothing; metrics
// and an armed tracer no request matches; or that tracer alone, as
// skiphashd's -trace-slow-ms arms it.
type cycleObs int

const (
	cycleBare cycleObs = iota
	cycleMetrics
	cycleTracer
)

// cycle runs one drain cycle the way serve does: the arrival stamp
// (when the connection tracks timings), execute, observe.
func cycle(c *conn, batch []wire.Request) {
	if !c.track {
		c.execute(batch)
		return
	}
	c.arrival = time.Now()
	c.execute(batch)
	c.observe(batch)
}

func benchCycle(b *testing.B, mixed bool, o cycleObs) {
	for _, f := range cycleFamilies {
		b.Run(f.name, func(b *testing.B) {
			c, batch := cycleConn(b, f.v2, mixed, o)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(c, batch)
			}
		})
	}
}

// BenchmarkDrainCycleGets measures one drain cycle of a pure-read run:
// the read-segregated path (direct Gets) and response encoding. This is
// the serving layer's hottest loop; its allocation budget is zero in
// both frame families.
func BenchmarkDrainCycleGets(b *testing.B) { benchCycle(b, false, cycleBare) }

// BenchmarkDrainCycleGetsMetrics is BenchmarkDrainCycleGets with the
// full observability stack enabled: the delta against the plain
// benchmark is the metrics cost, and the allocation budget is unchanged.
func BenchmarkDrainCycleGetsMetrics(b *testing.B) { benchCycle(b, false, cycleMetrics) }

// BenchmarkDrainCycleMixed measures a drain cycle whose run coalesces
// into one Atomic transaction (reads and writes interleaved).
func BenchmarkDrainCycleMixed(b *testing.B) { benchCycle(b, true, cycleBare) }
