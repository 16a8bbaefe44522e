package server

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/wire"
	"repro/skiphash"
)

// Server-side observability. Everything here is additive and stays off
// the data path's shared-write side: instruments are striped atomics,
// per-request annotations live in conn-local scratch, and the tracer
// takes its mutex only for ops that are already slow. With Config.Obs
// and Config.Tracer unset the per-request cost is a nil check.

// Execution-path markers for per-request annotations (conn.notes). The
// zero value is standalone so unannotated requests (the server's own
// ops, runs that failed namespace resolution) report truthfully.
const (
	pathStandalone uint8 = iota
	pathReads
	pathAtomic
)

// note annotates one request of a cycle for observe: the namespace it
// is accounted to, its execution path, and the retries of the coalesced
// transaction it ran in (0 on the other paths).
type note struct {
	ns      *namespace
	path    uint8
	retries uint64
}

// pathName renders a path marker for trace entries.
func pathName(p uint8) string {
	switch p {
	case pathReads:
		return "reads"
	case pathAtomic:
		return "atomic"
	}
	return "standalone"
}

// reqLatencyName is the per-namespace request latency family, one
// series per namespace under its name (see newNamespace).
const (
	reqLatencyName = "skiphash_server_request_seconds"
	reqLatencyHelp = "Request latency from the read that delivered its frame to the response flush, by namespace."
	busyName       = "skiphash_server_busy_refusals_total"
	busyHelp       = "Requests or connections refused with StatusBusy, by reason."
	nsShardsName   = "skiphash_ns_shards"
	nsShardsHelp   = "Shard count of a named namespace's map."
)

// metrics holds the server's registered instruments; nil when
// Config.Obs is unset.
type metrics struct {
	requests  *obs.Counter
	runSize   *obs.Histogram
	busyConns *obs.Counter
	busyNS    *obs.Counter
}

// newMetrics registers the server's instruments on r. Registration is
// idempotent, so two servers sharing a registry share the counters.
func newMetrics(s *Server, r *obs.Registry) *metrics {
	m := &metrics{
		requests: r.Counter("skiphash_server_requests_total",
			"Requests executed, all ops and namespaces."),
		runSize: r.Histogram("skiphash_server_run_size",
			"Requests absorbed by one coalesced executor run.", obs.SizeBounds, 1),
		busyConns: r.Counter(busyName, busyHelp,
			obs.Label{Key: "reason", Value: "conn_limit"}),
		busyNS: r.Counter(busyName, busyHelp,
			obs.Label{Key: "reason", Value: "ns_quota"}),
	}
	r.GaugeFunc("skiphash_server_connections",
		"Connections currently served.",
		func() float64 { return float64(s.NumConns()) })
	return m
}

// RegisterMapMetrics registers the default map's series on reg: STM
// transaction counters and commit latency, reclamation, the shard
// count (always 1; the gauge stays for the benchmark's shard.count), and
// the range paths. The STM series are the map's runtime's, so they
// count every map built on it: in skiphashd, every map the daemon owns.
// skiphashd exports them beside its durability and replication series;
// skipstress -metrics-dump prints them alone. Everything is a Func
// metric over an existing Stats() accessor, except the commit
// histogram, which the runtime feeds through its commit observer from
// now on — nothing new on any hot path. m returns the map at each
// scrape: a replica swaps its map at a full resync.
func RegisterMapMetrics(reg *obs.Registry, m func() *skiphash.Map[int64, int64]) {
	// STM. One aggregated Stats() snapshot per scrape would be nicer
	// than one per Func, but STMStats sums the runtime's counter cells
	// without allocating — scrape cadence makes the duplication
	// irrelevant.
	const onRuntime = " Counts every map on the default map's STM runtime."
	stats := func() stm.Stats { return m().STMStats() }
	reg.CounterFunc("skiphash_stm_commits_total",
		"Successfully committed transactions."+onRuntime,
		func() uint64 { return stats().Commits })
	reg.CounterFunc("skiphash_stm_readonly_commits_total",
		"Committed transactions that never wrote."+onRuntime,
		func() uint64 { return stats().ReadOnlyCommits })
	reg.CounterFunc("skiphash_stm_aborts_total",
		"Rolled-back attempts by reason."+onRuntime,
		func() uint64 { return stats().AbortsValidate }, obs.Label{Key: "reason", Value: "validate"})
	reg.CounterFunc("skiphash_stm_aborts_total",
		"Rolled-back attempts by reason."+onRuntime,
		func() uint64 { return stats().AbortsAcquire }, obs.Label{Key: "reason", Value: "acquire"})
	reg.CounterFunc("skiphash_stm_aborts_total",
		"Rolled-back attempts by reason."+onRuntime,
		func() uint64 { return stats().AbortsInjected }, obs.Label{Key: "reason", Value: "injected"})
	reg.CounterFunc("skiphash_stm_user_errors_total",
		"Transactions rolled back by an error: the body's, or a write the log refused."+onRuntime,
		func() uint64 { return stats().UserErrors })
	reg.CounterFunc("skiphash_stm_backoff_nanoseconds_total",
		"Wall time spent in inter-attempt contention backoff."+onRuntime,
		func() uint64 { return stats().BackoffNanos })
	reg.CounterFunc("skiphash_stm_fastread_hits_total",
		"Point reads answered by the optimistic non-transactional fast path."+onRuntime,
		func() uint64 { return stats().FastReadHits })
	reg.CounterFunc("skiphash_stm_fastread_fallbacks_total",
		"Optimistic fast-path reads that fell back to a full transaction."+onRuntime,
		func() uint64 { return stats().FastReadFallbacks })

	commitLatency := reg.Histogram("skiphash_stm_commit_seconds",
		"Successful commit wall time, first begin to commit, retries included."+onRuntime,
		obs.LatencyBounds, 1e-9)
	m().Runtime().SetCommitObserver(commitLatency)

	// Reclamation.
	maint := func() core.MaintenanceStats { return m().MaintenanceStats() }
	reg.CounterFunc("skiphash_core_drained_nodes_total",
		"Logically deleted nodes physically unstitched: by the removing transaction at commit, or, if deferred to an in-flight slow-path range query, once that query and every older one finished.",
		func() uint64 { return maint().DrainedNodes })
	reg.CounterFunc("skiphash_core_drain_batches_total",
		"Transactions that unstitched nodes deferred to slow-path range queries, run when the oldest such query finished.",
		func() uint64 { return maint().DrainBatches })

	reg.GaugeFunc("skiphash_shards",
		"Shard count of the default map.",
		func() float64 { return float64(m().Shards()) })

	rng := func() core.RangeStats { return m().RangeStats() }
	reg.CounterFunc("skiphash_core_range_fast_attempts_total",
		"Fast-path range query attempts.",
		func() uint64 { return rng().FastAttempts })
	reg.CounterFunc("skiphash_core_range_fast_aborts_total",
		"Fast-path range attempts that aborted to the slow path.",
		func() uint64 { return rng().FastAborts })
	reg.CounterFunc("skiphash_core_range_slow_commits_total",
		"Range queries that committed via the RQC slow path.",
		func() uint64 { return rng().SlowCommits })
}

// markRun annotates one run's requests with their namespace, execution
// path and retries, and banks a coalesced run's size. Conn-local; no
// shared writes beyond the striped histogram.
func (c *conn) markRun(i, j int, path uint8, ns *namespace, retries uint64) {
	if !c.track {
		return
	}
	for k := i; k < j; k++ {
		c.notes[k] = note{ns: ns, path: path, retries: retries}
	}
	if m := c.srv.met; m != nil && path != pathStandalone {
		m.runSize.Observe(uint64(j - i))
	}
}

// observe banks the cycle's latency once per request — every request of
// a cycle arrived with the same read and is answered by the same flush —
// and feeds the slow-op tracer. Called once per cycle after the flush,
// only when the connection tracks timings (metrics or tracer attached).
func (c *conn) observe(batch []wire.Request) {
	m := c.srv.met
	tr := c.srv.cfg.Tracer
	now := time.Now()
	d := now.Sub(c.arrival)
	traceActive := tr != nil && tr.Enabled()
	if m != nil {
		m.requests.Add(uint64(len(batch)))
	}
	for i := range batch {
		n := &c.notes[i]
		if n.ns.reqLatency != nil {
			n.ns.reqLatency.ObserveNanos(int64(d))
		}
		if traceActive && tr.Slow(d) {
			req := &batch[i]
			tr.Record(obs.TraceEntry{
				UnixNanos: now.UnixNano(),
				Op:        req.Op.String(),
				Namespace: n.ns.name,
				Path:      pathName(n.path),
				KeyHash:   reqKeyHash(req),
				Duration:  d,
				Aborts:    n.retries,
			})
		}
	}
}

// reqKeyHash fingerprints the request's (first) key without retaining
// it; 0 for keyless ops.
func reqKeyHash(req *wire.Request) uint64 {
	k, v2 := req.Op.Kind(), req.Op.IsV2Data()
	switch {
	case k == wire.KindNone || k > wire.KindRange:
		return 0
	case k != wire.KindBatch && v2:
		return obs.HashBytes(req.BKey)
	case k != wire.KindBatch:
		return mixKey(req.Key)
	case len(req.BSteps) > 0:
		return obs.HashBytes(req.BSteps[0].Key)
	case len(req.Steps) > 0:
		return mixKey(req.Steps[0].Key)
	}
	return 0
}

// mixKey fingerprints an int64 key (Fibonacci hash + xor-fold).
func mixKey(k int64) uint64 {
	x := uint64(k) * 0x9e3779b97f4a7c15
	return x ^ x>>29
}
