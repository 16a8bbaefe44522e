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
// replication lag. -metrics serves /metrics and /debug/slowops on a
// loopback address, and the same handlers ride the -pprof mux; clients
// can fetch the exposition in-band with the Stats wire op.
// -trace-slow-ms arms a slow-op ring tracer (0 traces everything,
// dumped over HTTP and into the log on drain). -stats-every logs
// per-interval registry deltas and a final line on graceful drain;
// -pprof serves net/http/pprof on a loopback address for live CPU/heap
// profiling of the drain loop.
//
// Namespaces: one daemon hosts many named byte-string maps alongside
// the default int64 map. -ns name, -ns name=dir, and -ns name=dir:fsync
// (repeatable) open namespaces at boot — in-memory, durable at an
// explicit directory, or durable with its own fsync policy. -ns-root
// names the directory for namespaces created at runtime via the wire's
// NsCreate and re-discovers every ns-<name> subdirectory on start
// (their recorded fsync policies are restored). -ns-max-conns and
// -ns-max-batch set per-namespace quotas: a connection over a
// namespace's limit has its requests for that namespace answered
// StatusBusy, and coalesced namespace transactions are clamped.
// Namespaces are not replicated; -follow excludes them.
//
// Replication: with -replicate-addr a durable (-dir) server additionally streams its WAL to followers on that address.
// With -follow the daemon runs as a live replica instead: a durable map
// in -dir that follows the named primary's replication address. It
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
//	          [-ns name[=dir[:fsync]]]... [-ns-root path]
//	          [-ns-max-conns n] [-ns-max-batch n]
//	          [-replicate-addr host:port | -follow host:port]
//	          [-max-conns n] [-max-batch n] [-write-timeout d] [-idle-timeout d]
//	          [-drain-timeout d] [-stats-every d] [-quiet]
//	          [-metrics host:port] [-trace-slow-ms n] [-pprof host:port]
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

	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/server"
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
		nsMaxBatch   = flag.Int("ns-max-batch", 0, "per-namespace coalescing clamp (0 = -max-batch)")
		replAddr     = flag.String("replicate-addr", "", "stream the WAL to followers on this TCP address (requires -dir)")
		follow       = flag.String("follow", "", "run as a live replica of this primary replication address (requires -dir, excludes -replicate-addr)")
		maxConns     = flag.Int("max-conns", 256, "connection limit")
		maxBatch     = flag.Int("max-batch", 64, "max pipelined requests coalesced into one transaction")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "slow-client response deadline")
		idleTimeout  = flag.Duration("idle-timeout", 0, "close connections idle this long (0 = never)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound")
		statsEvery   = flag.Duration("stats-every", time.Minute, "metrics-delta stats log period (0 disables)")
		metricsAddr  = flag.String("metrics", "", "serve /metrics and /debug/slowops on this loopback address (empty disables; both also ride -pprof)")
		traceSlowMs  = flag.Int64("trace-slow-ms", -1, "trace requests at or above this many milliseconds (0 traces everything, negative disables)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this loopback address (empty disables)")
		quiet        = flag.Bool("quiet", false, "suppress per-connection diagnostics")
	)
	var nsSpecs nsFlags
	flag.Var(&nsSpecs, "ns", "open a namespace at boot: name, name=dir, or name=dir:fsync (repeatable)")
	flag.Parse()
	if *addr == "" && *unixPath == "" {
		log.Fatal("skiphashd: nothing to listen on (-addr and -unix both empty)")
	}
	if *follow != "" && *dir == "" {
		log.Fatal("skiphashd: -follow requires -dir (a replica is a durable map)")
	}
	if *follow != "" && *replAddr != "" {
		log.Fatal("skiphashd: -follow excludes -replicate-addr (a replica is not a stream source)")
	}
	if *follow != "" && (len(nsSpecs) > 0 || *nsRoot != "") {
		log.Fatal("skiphashd: -follow excludes -ns and -ns-root (namespaces are not replicated)")
	}
	if *replAddr != "" && *dir == "" {
		log.Fatal("skiphashd: -replicate-addr requires -dir (the stream is read from the WAL)")
	}

	var cfg skiphash.Config
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
		if *replAddr != "" {
			var pcfg repl.PrimaryConfig
			if !*quiet {
				pcfg.Logf = log.Printf
			}
			prim, err = repl.NewPrimary(pm, pcfg)
			if err != nil {
				log.Fatalf("skiphashd: %v", err)
			}
			rln, err := net.Listen("tcp", *replAddr)
			if err != nil {
				log.Fatalf("skiphashd: replication listen %s: %v", *replAddr, err)
			}
			log.Printf("skiphashd: replicating WAL on tcp://%s (epoch %d)", rln.Addr(), prim.Epoch())
			go func() {
				if err := prim.Serve(rln); err != nil {
					log.Printf("skiphashd: replication serve: %v", err)
				}
			}()
			// Serving clients see a Watermark op so barriered replica
			// reads have a primary-side stamp source.
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
		MaxBatch:     *maxBatch,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
		Obs:          obsReg,
		Tracer:       tracer,
		AbortsFn:     func() uint64 { return m().STMStats().Aborts },
	}
	if !*quiet {
		srvCfg.Logf = log.Printf
	}
	var reg *server.Registry
	if rep == nil {
		var err error
		reg, err = server.NewRegistry(server.RegistryConfig{
			Root:       *nsRoot,
			Durability: skiphash.Durability{Fsync: cfgFsyncPolicy(*fsync), FsyncEvery: *fsyncEvery},
			MaxConns:   *nsMaxConns,
			MaxBatch:   *nsMaxBatch,
			Obs:        obsReg,
		})
		if err != nil {
			log.Fatalf("skiphashd: namespace registry: %v", err)
		}
		for _, spec := range nsSpecs {
			var err error
			if spec.dir != "" {
				_, err = reg.CreateAt(spec.name, spec.dir, spec.fsync)
			} else {
				_, err = reg.Create(spec.name, false, spec.fsync)
			}
			if err != nil {
				log.Fatalf("skiphashd: -ns %s: %v", spec.name, err)
			}
		}
		if n := len(reg.List()); n > 0 {
			log.Printf("skiphashd: serving %d namespace(s) besides the default map", n)
		}
	}
	srv := server.NewWithRegistry(be, reg, srvCfg)

	// The metrics handlers ride the pprof DefaultServeMux and, with
	// -metrics, a dedicated loopback listener of their own.
	http.Handle("/metrics", obsReg)
	if tracer != nil {
		http.Handle("/debug/slowops", tracer)
	}
	if *metricsAddr != "" {
		if !loopbackAddr(*metricsAddr) {
			log.Fatalf("skiphashd: -metrics %q is not a loopback address", *metricsAddr)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obsReg)
		if tracer != nil {
			mux.Handle("/debug/slowops", tracer)
		}
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("skiphashd: metrics listen %s: %v", *metricsAddr, err)
		}
		log.Printf("skiphashd: metrics on http://%s/metrics", mln.Addr())
		go func() {
			if err := http.Serve(mln, mux); err != nil {
				log.Printf("skiphashd: metrics server: %v", err)
			}
		}()
	}
	if *pprofAddr != "" {
		if !loopbackAddr(*pprofAddr) {
			log.Fatalf("skiphashd: -pprof %q is not a loopback address", *pprofAddr)
		}
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("skiphashd: pprof listen %s: %v", *pprofAddr, err)
		}
		log.Printf("skiphashd: pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("skiphashd: pprof server: %v", err)
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
		role = "replicating primary"
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
	if prim != nil {
		prim.Shutdown()
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

// nsSpec is one -ns flag: a namespace to open at boot.
type nsSpec struct {
	name  string
	dir   string // "" = in-memory
	fsync uint8  // wire.NsFsync* selector
}

// nsFlags collects repeated -ns flags: name, name=dir, or
// name=dir:fsync with fsync one of default, none, interval, always.
type nsFlags []nsSpec

func (f *nsFlags) String() string {
	parts := make([]string, 0, len(*f))
	for _, s := range *f {
		parts = append(parts, s.name)
	}
	return strings.Join(parts, ",")
}

func (f *nsFlags) Set(v string) error {
	spec := nsSpec{fsync: wire.NsFsyncDefault}
	name, rest, hasDir := strings.Cut(v, "=")
	spec.name = name
	if name == "" {
		return fmt.Errorf("-ns %q: empty namespace name", v)
	}
	if hasDir {
		dir, pol, hasPol := strings.Cut(rest, ":")
		if dir == "" {
			return fmt.Errorf("-ns %q: empty directory (omit '=' for an in-memory namespace)", v)
		}
		spec.dir = dir
		if hasPol {
			switch pol {
			case "default":
				spec.fsync = wire.NsFsyncDefault
			case "none":
				spec.fsync = wire.NsFsyncNone
			case "interval":
				spec.fsync = wire.NsFsyncInterval
			case "always":
				spec.fsync = wire.NsFsyncAlways
			default:
				return fmt.Errorf("-ns %q: unknown fsync policy %q", v, pol)
			}
		}
	}
	*f = append(*f, spec)
	return nil
}

func durabilityDesc(dir, fsync string) string {
	if dir == "" {
		return "off"
	}
	return fmt.Sprintf("%s, fsync=%s", dir, fsync)
}

// loopbackAddr reports whether addr binds a loopback interface; the
// pprof endpoint exposes heap contents and must not face the network.
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
