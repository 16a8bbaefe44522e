package main

import (
	"log"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/skiphash"
)

// instrumentedStore is the durability engine's observability surface;
// persist.Store implements it (obtained by asserting the
// core.Persister the map hands back).
type instrumentedStore interface {
	Instrument(fsyncLatency, batchRecords, snapDuration *obs.Histogram)
	Stats() persist.StoreStats
}

// buildRegistry wires every subsystem the daemon runs into one obs
// registry: the default map's series (server.RegisterMapMetrics), the
// durability engine, and the replication roles. The server layer
// registers its own series through server.Config.Obs; namespaces theirs
// through RegistryConfig.Obs. Everything here is a Func metric over
// existing Stats() accessors or a histogram fed by an observer hook —
// nothing new on any hot path.
func buildRegistry(m func() *skiphash.Map[int64, int64], rep *repl.Replica, prim *repl.Primary) *obs.Registry {
	reg := obs.NewRegistry()
	server.RegisterMapMetrics(reg, m)

	// Durability engine (absent on in-memory maps; not exported for a
	// replica, whose full resyncs replace its map and engine).
	if st, ok := m().Persister().(instrumentedStore); ok && rep == nil {
		registerPersist(reg, st)
	}

	// Replication roles.
	if rep != nil {
		rs := rep.Stats
		reg.CounterFunc("skiphash_repl_records_total",
			"WAL records applied from the replication stream.",
			func() uint64 { return rs().Records })
		reg.CounterFunc("skiphash_repl_resyncs_total",
			"Full resyncs performed (snapshot and log written to disk and recovered), initial sync included.",
			func() uint64 { return rs().Resyncs })
		reg.CounterFunc("skiphash_repl_epoch_changes_total",
			"Primary epoch changes observed (each forces a full resync).",
			func() uint64 { return rs().EpochChanges })
		reg.GaugeFunc("skiphash_repl_watermark",
			"Replica applied commit-stamp watermark.",
			func() float64 { return float64(rs().Watermark) })
		reg.GaugeFunc("skiphash_repl_lag",
			"Replication lag in commit-stamp units: freshest advertised primary stamp minus applied watermark.",
			func() float64 {
				s := rs()
				return float64(s.PrimaryStamp - s.Watermark)
			})
	}
	if prim != nil {
		ps := prim.Stats
		reg.GaugeFunc("skiphash_repl_stream_position_bytes",
			"Replication stream position: WAL bytes the primary's store has appended since it opened.",
			func() float64 { return float64(ps().Position) })
		reg.GaugeFunc("skiphash_repl_followers",
			"Live follower subscriptions.",
			func() float64 { return float64(ps().Followers) })
		reg.CounterFunc("skiphash_repl_resyncs_served_total",
			"Full resyncs served to followers.",
			func() uint64 { return ps().Resyncs })
	}
	return reg
}

// registerPersist attaches the durability engine's histograms and
// exposes its counters.
func registerPersist(reg *obs.Registry, st instrumentedStore) {
	fsyncDur := reg.Histogram("skiphash_persist_fsync_seconds",
		"WAL fsync wall time.", obs.LatencyBounds, 1e-9)
	batchRecs := reg.Histogram("skiphash_persist_batch_records",
		"Records per group-commit flush.", obs.SizeBounds, 1)
	snapDur := reg.Histogram("skiphash_persist_snapshot_seconds",
		"Snapshot attempt wall time.", obs.LatencyBounds, 1e-9)
	st.Instrument(fsyncDur, batchRecs, snapDur)
	reg.CounterFunc("skiphash_persist_records_total",
		"WAL records appended since open.",
		func() uint64 { return st.Stats().Records })
	reg.CounterFunc("skiphash_persist_appended_bytes_total",
		"WAL bytes appended since open.",
		func() uint64 { return uint64(st.Stats().AppendedBytes) })
	reg.CounterFunc("skiphash_persist_flushes_total",
		"WAL buffer write-outs.",
		func() uint64 { return st.Stats().Flushes })
	reg.CounterFunc("skiphash_persist_syncs_total",
		"WAL fsyncs.",
		func() uint64 { return st.Stats().Syncs })
	reg.CounterFunc("skiphash_persist_snapshots_total",
		"Completed snapshots.",
		func() uint64 { return st.Stats().Snapshots })
	reg.CounterFunc("skiphash_persist_segments_deleted_total",
		"WAL segments truncated behind snapshots.",
		func() uint64 { return st.Stats().SegmentsDeleted })
	reg.CounterFunc("skiphash_persist_late_syncs_total",
		"Sync calls that raced Close/crash and returned ErrSyncRaced.",
		func() uint64 { return st.Stats().LateSyncs })
	reg.GaugeFunc("skiphash_persist_bytes_since_snapshot",
		"WAL bytes accumulated since the last snapshot.",
		func() float64 { return float64(st.Stats().BytesSinceSnap) })
}

// logStats periodically logs one structured line of per-interval
// registry deltas — counters as deltas, gauges at their current value,
// zero-delta series elided — until done is closed. It replaces the old
// STM-only stats logger: every subsystem that registers a series is
// covered automatically.
func logStats(reg *obs.Registry, every time.Duration, done <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	prev := sampleMap(reg)
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
		cur := sampleMap(reg)
		log.Printf("skiphashd: stats (%v): %s", every, statsLine(prev, cur))
		prev = cur
	}
}

// logFinalStats emits the drain-time stats line: lifetime counter
// totals and final gauge values for every registered series.
func logFinalStats(reg *obs.Registry) {
	log.Printf("skiphashd: final stats: %s", statsLine(nil, sampleMap(reg)))
}

// sampleMap flattens the registry to series-key → sample.
func sampleMap(reg *obs.Registry) map[string]obs.Sample {
	out := make(map[string]obs.Sample)
	for _, s := range reg.Samples() {
		out[s.Name+s.Labels] = s
	}
	return out
}

// statsLine renders space-separated name{labels}=value pairs: counter
// values relative to prev (elided at zero delta; lifetime totals when
// prev is nil), gauges at their current value (elided at zero).
func statsLine(prev, cur map[string]obs.Sample) string {
	keys := make([]string, 0, len(cur))
	for k := range cur {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		s := cur[k]
		v := s.Value
		if s.Kind == "counter" && prev != nil {
			v -= prev[k].Value
		}
		if v == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.Name)
		b.WriteString(s.Labels)
		b.WriteByte('=')
		b.WriteString(formatStatValue(v))
	}
	if b.Len() == 0 {
		return "(all zero)"
	}
	return b.String()
}

// formatStatValue prints integers without a fraction; histogram _sum
// samples of seconds-scaled series are the only fractional values, and
// three decimals is plenty for a log line.
func formatStatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}
