// Command skiphashd serves a skip hash over the wire protocol
// (internal/wire) on TCP and/or a unix socket.
//
// The served map is one skip hash. With -dir the map is durable: it is
// recovered from the directory on start, every committed update is
// written to the commit-stamp-ordered WAL under the chosen -fsync
// policy, and a clean shutdown syncs before closing.
//
// Shutdown is signal-driven: SIGINT/SIGTERM stops accepting, answers
// the requests already read (bounded by -drain-timeout), and syncs and
// closes the default map and every namespace. The exit status is 1 if any of their durability engines
// reports acknowledged writes that may not be on disk.
//
// Observability: every subsystem reports into one metrics registry
// (internal/obs) rendered in Prometheus text exposition — STM commits,
// aborts by reason and commit latency; reclamation drains; WAL fsync
// latency and group-commit batch sizes; per-namespace request latency;
// replication lag. -metrics serves /metrics, /debug/slowops and
// net/http/pprof (live CPU/heap profiling of the drain loop) on a
// loopback address; clients can fetch the exposition in-band with the
// Stats wire op. -trace-slow-ms arms a slow-op ring tracer (0 traces
// everything, dumped over HTTP and into the log on drain); each entry
// carries the retries of the coalesced transaction its request ran in,
// 0 for a request that ran in none. -stats-every
// logs per-interval registry deltas and a final line on graceful
// drain.
//
// Namespaces: one daemon hosts many named byte-string maps alongside
// the default int64 map. -ns name (repeatable) opens an in-memory
// namespace at boot. A durable namespace has one home,
// <ns-root>/ns-<name>: the wire's NsCreate makes it there, with its own
// fsync policy, and every start reopens each ns-<name> subdirectory of
// -ns-root under the policy it recorded. -ns-max-conns sets a
// per-namespace connection quota: a connection over a namespace's
// limit has its requests for that namespace answered StatusBusy.
// Namespaces are not replicated; -follow excludes them.
//
// Replication: a durable (-dir) server is a primary. A follower sends
// Follow on an ordinary connection to its -addr, and that connection
// then carries the WAL stream; followers count against -max-conns and
// are cut when the drain starts. With -follow the daemon runs as a
// live replica instead: a durable map in -dir that follows the primary
// serving on the named TCP address. It
// logs every record it applies, keeps its resume position in -dir, and
// after a restart resumes from there; a full resync is written to -dir
// and recovered as any durable map is. It serves read-only traffic on
// -addr/-unix at its commit-stamp watermark (writes answer
// StatusReadOnly), and becomes writable when a client sends Promote —
// the replica's clock is floored above every applied stamp, so
// post-promotion commits extend the primary's order. A promoted replica
// stays durable, and a daemon started with -dir alone reopens it; it
// does not stream its WAL.
//
// Usage:
//
//	skiphashd [-addr host:port] [-unix path]
//	          [-dir path] [-fsync none|interval|always] [-fsync-every d]
//	          [-ns name]... [-ns-root path]
//	          [-ns-max-conns n]
//	          [-follow host:port]
//	          [-max-conns n] [-write-timeout d] [-idle-timeout d]
//	          [-drain-timeout d] [-stats-every d] [-quiet]
//	          [-metrics host:port] [-trace-slow-ms n]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/stm"
	"repro/internal/wire"
	"repro/skiphash"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7466", "TCP listen address (empty disables)")
		unixPath     = flag.String("unix", "", "unix socket path (empty disables)")
		dir          = flag.String("dir", "", "durability directory (empty = in-memory only)")
		fsync        = flag.String("fsync", "interval", "WAL fsync policy: none, interval, always")
		fsyncEvery   = flag.Duration("fsync-every", 0, "interval policy's fsync period (0 = engine default)")
		nsRoot       = flag.String("ns-root", "", "directory for runtime-created durable namespaces; ns-* subdirectories are reopened on start")
		nsMaxConns   = flag.Int("ns-max-conns", 0, "per-namespace connection quota (0 = unlimited)")
		follow       = flag.String("follow", "", "run as a live replica of the primary serving on this TCP address, its -addr (requires -dir)")
		maxConns     = flag.Int("max-conns", 256, "connection limit")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "slow-client response deadline")
		idleTimeout  = flag.Duration("idle-timeout", 0, "close connections idle this long (0 = never)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound")
		statsEvery   = flag.Duration("stats-every", time.Minute, "metrics-delta stats log period (0 disables)")
		metricsAddr  = flag.String("metrics", "", "serve /metrics, /debug/slowops and /debug/pprof/ on this loopback address (empty disables)")
		traceSlowMs  = flag.Int64("trace-slow-ms", -1, "trace requests at or above this many milliseconds (0 traces everything, negative disables)")
		quiet        = flag.Bool("quiet", false, "suppress per-connection diagnostics")
	)
	var nsNames nsFlags
	flag.Var(&nsNames, "ns", "open an in-memory namespace of this name at boot (repeatable); durable namespaces live under -ns-root")
	flag.Parse()
	if *addr == "" && *unixPath == "" {
		log.Fatal("skiphashd: nothing to listen on (-addr and -unix both empty)")
	}
	if *follow != "" && *dir == "" {
		log.Fatal("skiphashd: -follow requires -dir (a replica is a durable map)")
	}
	if *follow != "" && (len(nsNames) > 0 || *nsRoot != "") {
		log.Fatal("skiphashd: -follow excludes -ns and -ns-root (namespaces are not replicated)")
	}

	// Every map the daemon builds runs on one STM runtime: one commit
	// clock orders all their commits, and the STM series count them all.
	cfg := core.OnRuntime(skiphash.Config{}, stm.New())
	if *dir != "" {
		cfg.Durability = &skiphash.Durability{Dir: *dir, Fsync: cfgFsyncPolicy(*fsync), FsyncEvery: *fsyncEvery}
	}
	var (
		m    func() *skiphash.Map[int64, int64]
		be   server.Backend
		rep  *repl.Replica
		prim *repl.Primary
	)
	if *follow != "" {
		// Replica mode: the map is fed by the replication stream, not by
		// clients — serve its read-only backend at the applied watermark.
		// A full resync swaps the map, so it is read through rep.Map.
		var err error
		rep, err = repl.NewReplica(repl.ReplicaConfig{Addr: *follow, Map: cfg, Logf: log.Printf})
		if err != nil {
			log.Fatalf("skiphashd: replica: %v", err)
		}
		m = rep.Map
		be = rep.Backend()
		go func() {
			if err := rep.WaitReady(context.Background()); err == nil {
				log.Printf("skiphashd: replica caught up with %s at watermark %d", *follow, rep.Watermark())
			}
		}()
	} else {
		pm, err := skiphash.Open[int64, int64](skiphash.Int64Less, skiphash.Hash64, cfg, skiphash.Int64Codec(), skiphash.Int64Codec())
		if err != nil {
			log.Fatalf("skiphashd: open: %v", err)
		}
		m = func() *skiphash.Map[int64, int64] { return pm }
		be = server.NewShardedBackend(pm)
		if *dir != "" {
			// A durable map streams its WAL to whoever sends Follow, and
			// answers Watermark, the stamp source of barriered replica
			// reads. The primary adds nothing to the commit path.
			if prim, err = repl.NewPrimary(pm); err != nil {
				log.Fatalf("skiphashd: %v", err)
			}
			be = prim.Backend(be)
		}
	}

	obsReg := buildRegistry(m, rep, prim)
	var tracer *obs.Tracer
	if *traceSlowMs >= 0 {
		tracer = obs.NewTracer(256)
		tracer.SetThreshold(time.Duration(*traceSlowMs) * time.Millisecond)
	}

	srvCfg := server.Config{
		MaxConns:     *maxConns,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
		Obs:          obsReg,
		Tracer:       tracer,
	}
	if !*quiet {
		srvCfg.Logf = log.Printf
	}
	var reg *server.Registry
	if rep == nil {
		var err error
		reg, err = server.NewRegistry(server.RegistryConfig{
			Root:       *nsRoot,
			Map:        cfg,
			Durability: skiphash.Durability{Fsync: cfgFsyncPolicy(*fsync), FsyncEvery: *fsyncEvery},
			MaxConns:   *nsMaxConns,
			Obs:        obsReg,
		})
		if err != nil {
			log.Fatalf("skiphashd: namespace registry: %v", err)
		}
		for _, name := range nsNames {
			if _, err := reg.Create(name, false, wire.NsFsyncDefault); err != nil {
				log.Fatalf("skiphashd: -ns %s: %v", name, err)
			}
		}
		if n := len(reg.List()); n > 0 {
			log.Printf("skiphashd: serving %d namespace(s) besides the default map", n)
		}
	}
	srv := server.NewWithRegistry(be, reg, srvCfg)

	// -metrics serves DefaultServeMux, which net/http/pprof fills with
	// the profiling handlers.
	http.Handle("/metrics", obsReg)
	if tracer != nil {
		http.Handle("/debug/slowops", tracer)
	}
	if *metricsAddr != "" {
		if !loopbackAddr(*metricsAddr) {
			log.Fatalf("skiphashd: -metrics %q is not a loopback address", *metricsAddr)
		}
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("skiphashd: metrics listen %s: %v", *metricsAddr, err)
		}
		log.Printf("skiphashd: metrics on http://%s/metrics", mln.Addr())
		go func() {
			if err := http.Serve(mln, nil); err != nil {
				log.Printf("skiphashd: metrics server: %v", err)
			}
		}()
	}

	statsDone := make(chan struct{})
	if *statsEvery > 0 {
		go logStats(obsReg, *statsEvery, statsDone)
	} else {
		close(statsDone)
	}

	role := "standalone"
	switch {
	case rep != nil:
		role = "replica of " + *follow
	case prim != nil:
		role = fmt.Sprintf("primary, epoch %d", prim.Epoch())
	}
	var wg sync.WaitGroup
	serveErrs := make(chan error, 2)
	listen := func(network, laddr string) {
		ln, err := net.Listen(network, laddr)
		if err != nil {
			log.Fatalf("skiphashd: listen %s %s: %v", network, laddr, err)
		}
		// The shard count (always 1) stays in this line until a change
		// to benchmark/ retires it: benchmark/served.go parses the line.
		log.Printf("skiphashd: serving %d shards on %s://%s (durability: %s, role: %s)",
			m().Shards(), network, ln.Addr(), durabilityDesc(*dir, *fsync), role)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(ln); err != nil {
				serveErrs <- fmt.Errorf("serve %s://%s: %w", network, laddr, err)
			}
		}()
	}
	if *addr != "" {
		listen("tcp", *addr)
	}
	if *unixPath != "" {
		os.Remove(*unixPath) // a stale socket from a previous run refuses rebinding
		listen("unix", *unixPath)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		log.Printf("skiphashd: %v: draining (up to %v)", sig, *drainTimeout)
	case err := <-serveErrs:
		log.Printf("skiphashd: %v: draining", err)
	}

	if *statsEvery > 0 {
		close(statsDone)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	exit := 0
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("skiphashd: drain incomplete: %v", err)
		// Connections force-closed at the deadline lose only unacknowledged
		// work; anything else is a namespace that failed its final flush.
		if !errors.Is(err, ctx.Err()) {
			exit = 1
		}
	}
	wg.Wait()
	if *unixPath != "" {
		os.Remove(*unixPath)
	}
	if err := be.Close(); err != nil {
		log.Printf("skiphashd: durability engine: %v", err)
		exit = 1
	}
	// The final stats line runs after teardown so it includes drain-time
	// work (final sync, close-path reclamation, any ErrSyncRaced races
	// surfacing as skiphash_persist_late_syncs_total).
	logFinalStats(obsReg)
	if tracer != nil && tracer.Total() > 0 {
		log.Printf("skiphashd: slow ops (%d traced):\n%s", tracer.Total(), tracer.String())
	}
	log.Printf("skiphashd: bye")
	os.Exit(exit)
}

// cfgFsyncPolicy maps the -fsync flag onto the engine's policy,
// exiting on an unknown name.
func cfgFsyncPolicy(fsync string) skiphash.FsyncPolicy {
	switch fsync {
	case "none":
		return skiphash.FsyncNone
	case "interval":
		return skiphash.FsyncInterval
	case "always":
		return skiphash.FsyncAlways
	default:
		log.Fatalf("skiphashd: unknown -fsync policy %q", fsync)
		return 0
	}
}

// nsFlags collects repeated -ns flags: the names of the in-memory
// namespaces to open at boot.
type nsFlags []string

func (f *nsFlags) String() string { return strings.Join(*f, ",") }

// Set refuses the name=dir[:fsync] form, which is gone: a durable
// namespace's only home is under -ns-root.
func (f *nsFlags) Set(v string) error {
	if strings.Contains(v, "=") {
		return fmt.Errorf("-ns %q: the name=dir[:fsync] form was removed; durable namespaces live under -ns-root (created by NsCreate, reopened at start)", v)
	}
	*f = append(*f, v)
	return nil
}

func durabilityDesc(dir, fsync string) string {
	if dir == "" {
		return "off"
	}
	return fmt.Sprintf("%s, fsync=%s", dir, fsync)
}

// loopbackAddr reports whether addr binds a loopback interface; the
// metrics endpoint serves pprof, which exposes heap contents, and must
// not face the network.
func loopbackAddr(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return false
	}
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(strings.Trim(host, "[]"))
	return ip != nil && ip.IsLoopback()
}
