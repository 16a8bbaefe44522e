package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/wire"
	"repro/skiphash/client"
)

// buildDaemon compiles cmd/skiphashd into the benchmark's out
// directory. The go command relinks only when the sources changed, so
// repeated runs in one checkout pay for the build once; it always runs
// before any timer starts.
func buildDaemon(outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "skiphashd")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "repro/cmd/skiphashd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build skiphashd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running skiphashd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	network string
	addr    string
	exited  chan struct{} // closed once Wait has returned
	waitErr error

	mu   sync.Mutex
	logs bytes.Buffer
}

var servingRe = regexp.MustCompile(`serving \d+ shards on (tcp|unix)://(\S+) `)

// startDaemon launches skiphashd with its defaults (sharded in-memory
// map, maintainer on, fsync n/a) listening on a unix socket at
// sockPath, or, when sockPath is empty, on a loopback TCP port the
// kernel picks; it returns once the daemon has announced its address.
func startDaemon(bin, sockPath string) (*daemon, error) {
	args := []string{"-stats-every", "0", "-quiet"}
	if sockPath != "" {
		args = append(args, "-addr", "", "-unix", sockPath)
	} else {
		args = append(args, "-addr", "127.0.0.1:0")
	}
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start skiphashd: %w", err)
	}
	announced := make(chan struct{})
	go func() {
		// Drain stderr for the daemon's whole life so it never blocks on
		// the pipe; Wait must follow the last read.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logs.WriteString(line + "\n")
			if m := servingRe.FindStringSubmatch(line); m != nil && d.addr == "" {
				d.network, d.addr = m[1], m[2]
				close(announced)
			}
			d.mu.Unlock()
		}
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case <-announced:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("skiphashd exited before serving: %v\n%s", d.waitErr, d.logText())
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("skiphashd did not announce an address\n%s", d.logText())
	}
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs.String()
}

// stop asks the daemon to drain (SIGTERM), waits for it, and kills it
// if it does not go. It is safe to call more than once.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return d.waitErr
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("skiphashd: %w\n%s", d.waitErr, d.logText())
		}
		return nil
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("skiphashd ignored SIGTERM and was killed")
	}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuSeconds is the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields follow the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 14 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTick, nil
}

// rssBytes is the daemon's resident set size.
func (d *daemon) rssBytes() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short statm %q", b)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	return float64(pages) * float64(os.Getpagesize()), err
}

// servedTarget is a skiphashd subprocess plus the client pool dialled
// to it: one connection per load thread.
type servedTarget struct {
	d      *daemon
	cl     *client.Client
	v2     bool   // byte-string ops in one namespace, else v1 int64 ops
	nsID   uint32 // v2 only
	nsName string
}

// openServed starts the daemon, dials conns connections and, for v2,
// creates the namespace.
func openServed(bin, sockPath string, v2 bool, conns int) (*servedTarget, error) {
	d, err := startDaemon(bin, sockPath)
	if err != nil {
		return nil, err
	}
	t, err := dialServed(d.network, d.addr, v2, conns)
	if err != nil {
		d.stop()
		return nil, err
	}
	t.d = d
	return t, nil
}

// dialServed connects to an already listening server (the daemon, or
// the traced run's in-process server).
func dialServed(network, addr string, v2 bool, conns int) (*servedTarget, error) {
	cl, err := client.Dial2(network, addr, client.Options{Conns: conns})
	if err != nil {
		return nil, fmt.Errorf("dial %s://%s: %w", network, addr, err)
	}
	t := &servedTarget{cl: cl, v2: v2, nsName: "default"}
	if v2 {
		t.nsName = "bench"
		ns, err := cl.CreateNamespace(t.nsName, client.NamespaceOptions{})
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("create namespace: %w", err)
		}
		t.nsID = ns.ID()
	}
	return t, nil
}

func (t *servedTarget) worker(thread int) worker {
	return &connWorker{cn: t.cl.Conn(thread), v2: t.v2, ns: t.nsID}
}

func (t *servedTarget) close() error {
	err := t.cl.Close()
	if t.d != nil {
		err = errors.Join(err, t.d.stop())
	}
	return err
}

// counters fetches the server's metrics exposition over the wire (the
// STATS op) and picks out the series the layer metrics need.
func (t *servedTarget) counters() (counters, error) {
	blob, err := t.cl.ServerStats()
	if err != nil {
		return nil, fmt.Errorf("server stats: %w", err)
	}
	prom := parseProm(blob)
	c := counters{
		cSrvRuns:        prom["skiphash_server_run_size_count"],
		cSrvRunRequests: prom["skiphash_server_run_size_sum"],
	}
	if t.v2 {
		// The daemon exports transaction and map counters for its
		// default map only; a namespace shows its shard count.
		c[cShards] = prom[`skiphash_ns_shards{ns="`+t.nsName+`"}`]
	} else {
		c[cCommits] = prom["skiphash_stm_commits_total"]
		c[cBackoffNs] = prom["skiphash_stm_backoff_nanoseconds_total"]
		c[cFastHits] = prom["skiphash_stm_fastread_hits_total"]
		c[cFastFallbacks] = prom["skiphash_stm_fastread_fallbacks_total"]
		c[cDrained] = prom["skiphash_core_drained_nodes_total"]
		c[cShards] = prom["skiphash_shards"]
	}
	for name, v := range prom {
		switch {
		case strings.HasPrefix(name, "skiphash_stm_aborts_total{") && !t.v2:
			c[cAborts] += v
		case strings.HasPrefix(name, "skiphash_server_busy_refusals_total{"):
			c[cSrvBusy] += v
		case strings.HasPrefix(name, "skiphash_server_request_seconds_bucket{") &&
			strings.Contains(name, `ns="`+t.nsName+`"`):
			c[reqBucketPrefix+promLabel(name, "le")] = v
		}
	}
	return c, nil
}

// reqBucketPrefix marks the server's request-latency histogram buckets
// among the counters: the key's remainder is the bucket's upper bound
// in seconds.
const reqBucketPrefix = "server_req_le:"

// parseProm reads a Prometheus text exposition into series → value.
func parseProm(blob []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(blob), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// promLabel extracts one label's value from a series name.
func promLabel(series, key string) string {
	_, rest, ok := strings.Cut(series, key+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}

// connWorker drives one connection, with the v1 int64 ops on the
// default map or the v2 byte-string ops on one namespace.
type connWorker struct {
	cn    *client.Conn
	v2    bool
	ns    uint32
	keys  []byte // burst scratch: encoded keys and values
	reqs  []wire.Request
	calls []*client.Call
}

// request fills req for o. In v2 mode the key and value bytes are
// appended to w.keys, which must not be reallocated while requests
// referencing it are in flight.
func (w *connWorker) request(req *wire.Request, o op) {
	if !w.v2 {
		switch o.kind {
		case opGet:
			*req = wire.Request{Op: wire.OpGet, Key: o.key}
		case opInsert:
			*req = wire.Request{Op: wire.OpInsert, Key: o.key, Val: o.val}
		case opRemove:
			*req = wire.Request{Op: wire.OpDel, Key: o.key}
		}
		return
	}
	at := len(w.keys)
	w.keys = appendBKey(w.keys, o.key)
	k := w.keys[at : at+bkeyLen : at+bkeyLen]
	switch o.kind {
	case opGet:
		*req = wire.Request{Op: wire.OpGet2, NS: w.ns, BKey: k}
	case opInsert:
		w.keys = appendBKey(w.keys, o.val)
		*req = wire.Request{Op: wire.OpInsert2, NS: w.ns, BKey: k, BVal: w.keys[at+bkeyLen : at+2*bkeyLen]}
	case opRemove:
		*req = wire.Request{Op: wire.OpDel2, NS: w.ns, BKey: k}
	}
}

// result decodes a response to o.
func (w *connWorker) result(o op, resp *wire.Response, err error) opResult {
	r := opResult{ok: resp.Ok, err: err}
	if err != nil || o.kind != opGet {
		return r
	}
	if !w.v2 {
		r.val = resp.Val
	} else if resp.Ok {
		v, valid := parseBKey(resp.BVal)
		if !valid {
			r.err = fmt.Errorf("malformed value %x", resp.BVal)
		}
		r.val = v
	}
	return r
}

func (w *connWorker) do(o op) opResult {
	w.keys = w.keys[:0]
	var req wire.Request
	w.request(&req, o)
	resp, err := w.cn.Do(&req)
	return w.result(o, &resp, err)
}

func (w *connWorker) get(k int64) (int64, bool, error) {
	r := w.do(op{kind: opGet, key: k})
	return r.val, r.ok, r.err
}

func (w *connWorker) insert(k, v int64) (bool, error) {
	r := w.do(op{kind: opInsert, key: k, val: v})
	return r.ok, r.err
}

func (w *connWorker) remove(k int64) (bool, error) {
	r := w.do(op{kind: opRemove, key: k})
	return r.ok, r.err
}

// scanPage bounds one Range response during a scan.
const scanPage = 8192

func (w *connWorker) scan(lo, hi int64, out []kv) ([]kv, error) {
	for lo <= hi {
		var req wire.Request
		if w.v2 {
			req = wire.Request{Op: wire.OpRange2, NS: w.ns, BKey: appendBKey(nil, lo), BVal: appendBKey(nil, hi), Max: scanPage}
		} else {
			req = wire.Request{Op: wire.OpRange, Key: lo, Val: hi, Max: scanPage}
		}
		resp, err := w.cn.Do(&req)
		if err != nil {
			return out, err
		}
		n := len(resp.Pairs) + len(resp.BPairs)
		for _, p := range resp.Pairs {
			out = append(out, kv{Key: p.Key, Val: p.Val})
		}
		for _, p := range resp.BPairs {
			k, okK := parseBKey(p.Key)
			v, okV := parseBKey(p.Val)
			if !okK || !okV {
				return out, fmt.Errorf("malformed pair %x=%x", p.Key, p.Val)
			}
			out = append(out, kv{Key: k, Val: v})
		}
		if n < scanPage {
			break
		}
		lo = out[len(out)-1].Key + 1
	}
	return out, nil
}

// burst pipelines ops on the connection: encode all, flush once, then
// collect the replies in order. Each request's latency runs from the
// flush to the arrival of its own reply.
func (w *connWorker) burst(ops []op, res []opResult, lat []int64) error {
	if cap(w.reqs) < len(ops) {
		w.reqs = make([]wire.Request, len(ops))
		w.calls = make([]*client.Call, len(ops))
	}
	if need := len(ops) * 2 * bkeyLen; cap(w.keys) < need {
		w.keys = make([]byte, 0, need)
	}
	w.keys = w.keys[:0]
	for i, o := range ops {
		w.request(&w.reqs[i], o)
		call, err := w.cn.Start(&w.reqs[i])
		if err != nil {
			return err
		}
		w.calls[i] = call
	}
	t0 := time.Now()
	if err := w.cn.Flush(); err != nil {
		return err
	}
	for i, o := range ops {
		resp, err := w.calls[i].Wait()
		lat[i] = int64(time.Since(t0))
		res[i] = w.result(o, &resp, err)
	}
	return nil
}

func (w *connWorker) close() {}
