package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/skiphash"
)

// workload is one traffic mix against one way of running the map.
type workload struct {
	name string
	why  string

	universe    int64
	readPct     int // Get, or Range when ranges is set
	insertPct   int // the rest is Remove
	ranges      bool
	zipfTheta   float64 // 0 = uniform keys
	window      int     // requests in flight per thread; 1 = one at a time
	sampleEvery uint64  // time every n-th op: 16 in process, every request over a socket
	sharded     bool    // the map is a skiphash.Sharded, else a skiphash.Map
	served      bool
	v2          bool   // served with the v2 byte-string ops in a namespace, else v1 int64 ops
	detail      string // stated in the output: transport, fsync policy, ...

	// open builds the target from nothing for set-up repetition rep.
	open func(e *env, rep int) (target, error)
	// reopen, for durable workloads, recovers the closed target of
	// repetition rep from its directory.
	reopen func(e *env, rep int) (target, error)
}

// durableFsync is durable-write's policy: interval, the daemon's and
// the library's default (background fsync at least every FsyncEvery).
const durableFsync = skiphash.FsyncInterval

func durableDir(e *env, rep int) string {
	return filepath.Join(e.tmp, fmt.Sprintf("durable-%d", rep))
}

// workloads are ordered from the embedded map outwards to the served
// daemon. README.md says why each exists and which layers it loads.
// The in-process universes are the paper's 10^6 keys (half live, about
// 90 MB of map): larger than any cache of the host.
var workloads = []*workload{
	{
		name:     "embed-point",
		why:      "in-process sharded map, uniform 80/10/10 point ops over 10^6 keys (larger than cache): stm, hash index and shard routing do all the work",
		universe: 1_000_000, readPct: 80, insertPct: 10, window: 1, sampleEvery: 16, sharded: true,
		detail: "skiphash.NewSharded, zero Config, 2 threads with a Handle each",
		open:   func(*env, int) (target, error) { return openSharded(), nil },
	},
	{
		name:     "embed-range",
		why:      "in-process unsharded map over 10^6 keys, 50% 100-key range queries beside 25/25 inserts and removes: range path and its tax on writers",
		universe: 1_000_000, readPct: 50, insertPct: 25, ranges: true, window: 1, sampleEvery: 16,
		detail: "skiphash.New, zero Config, 2 threads with a Handle each",
		open:   func(*env, int) (target, error) { return openMap("", 0) },
	},
	{
		name:     "durable-write",
		why:      "in-process durable map (WAL on, fsync=interval), 20/40/40 write-heavy point ops over 10^6 keys: WAL encode, append and group flush dominate",
		universe: 1_000_000, readPct: 20, insertPct: 40, window: 1, sampleEvery: 16,
		detail: "skiphash.Open on a fresh directory, fsync=interval",
		open: func(e *env, rep int) (target, error) {
			dir := durableDir(e, rep)
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			return openMap(dir, durableFsync)
		},
		reopen: func(e *env, rep int) (target, error) {
			return openMap(durableDir(e, rep), durableFsync)
		},
	},
	{
		name:     "served-closed",
		why:      "skiphashd over a unix socket, v1 int64 ops, one request in flight per connection: per-request client, wire, server and syscall cost",
		universe: 1 << 18, readPct: 50, insertPct: 25, window: 1, sampleEvery: 1, sharded: true, served: true,
		detail: "skiphashd subprocess, unix socket, v1 ops on the default map, 2 connections x 1 in flight",
		open: func(e *env, rep int) (target, error) {
			return e.serve(e.socketPath(rep), false)
		},
	},
	{
		name:     "served-pipelined",
		why:      "skiphashd over loopback TCP, v2 16-byte keys in a namespace, zipfian 0.99, 32 requests in flight: batch coalescing, v2 codec, hot keys",
		universe: 1 << 18, readPct: 50, insertPct: 25, zipfTheta: 0.99, window: 32, sampleEvery: 1, sharded: true, served: true, v2: true,
		detail: "skiphashd subprocess, loopback TCP, v2 ops on one namespace, 2 connections x 32 in flight",
		open: func(e *env, rep int) (target, error) {
			return e.serve("", true)
		},
	},
}

// serve starts a daemon with one connection per load thread and makes
// sure it is stopped however the process ends.
func (e *env) serve(sockPath string, v2 bool) (target, error) {
	t, err := openServed(e.daemonBin, sockPath, v2, threads)
	if err != nil {
		return nil, err
	}
	e.atExit(func() { t.d.stop() })
	return t, nil
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
