package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/skiphash/client"
)

// TestSmokeMetrics builds the daemon binary, runs it with the metrics
// endpoint and slow-op tracer enabled, drives client traffic, scrapes
// /metrics over HTTP, and drains it with SIGTERM — the end-to-end
// check CI runs on every change. The traffic removes every key it put,
// so the scrape also shows the request path's inline reclamation.
// SKIPHASH_SMOKE_TRACE_MS overrides the tracer threshold (the nightly
// lane sets 0 to trace every request).
func TestSmokeMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("exec smoke test skipped in -short mode")
	}
	bin := buildDaemon(t)
	traceMs := os.Getenv("SKIPHASH_SMOKE_TRACE_MS")
	if traceMs == "" {
		traceMs = "50"
	}
	d := startDaemon(t, bin,
		"-addr", "127.0.0.1:0",
		"-metrics", "127.0.0.1:0",
		"-trace-slow-ms", traceMs,
		"-stats-every", "1s",
		"-quiet")
	srvAddr := d.await(servingRe)
	metURL := d.await(regexp.MustCompile(`metrics on (http://[^ ]+/metrics)`))

	c, err := client.Dial(srvAddr, client.Options{})
	if err != nil {
		t.Fatalf("dial %s: %v", srvAddr, err)
	}
	// Every served removal unstitches its node when it commits, so the
	// drained-nodes counter moves with the first one.
	const keys = 1024
	for k := int64(0); k < keys; k++ {
		if _, err := c.Put(k, k); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if k < 64 {
			if _, _, err := c.Get(k); err != nil {
				t.Fatalf("Get: %v", err)
			}
		}
	}
	for k := int64(0); k < keys; k++ {
		if ok, err := c.Remove(k); err != nil || !ok {
			t.Fatalf("Remove(%d) = %v, %v", k, ok, err)
		}
	}
	blob, err := c.ServerStats()
	if err != nil {
		t.Fatalf("ServerStats: %v", err)
	}
	c.Close()

	// The profiling handlers share the metrics listener.
	pprofURL := strings.TrimSuffix(metURL, "/metrics") + "/debug/pprof/"
	if resp, err := http.Get(pprofURL); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %v %v", pprofURL, resp, err)
	} else {
		resp.Body.Close()
	}

	body := scrape(t, metURL)
	for _, text := range []struct{ name, s string }{
		{"scrape", body},
		{"ServerStats blob", string(blob)},
	} {
		for _, want := range []string{
			`skiphash_stm_commits_total`,
			`skiphash_stm_aborts_total{reason="validate"}`,
			`skiphash_server_request_seconds_count{ns="default"}`,
			`skiphash_server_requests_total`,
		} {
			if !strings.Contains(text.s, want) {
				t.Errorf("%s missing %s:\n%s", text.name, want, text.s)
			}
		}
		if nonZero(t, text.s, "skiphash_stm_commits_total") == 0 {
			t.Errorf("%s: no commits counted after traffic", text.name)
		}
		if nonZero(t, text.s, "skiphash_server_requests_total") == 0 {
			t.Errorf("%s: no requests counted after traffic", text.name)
		}
		if nonZero(t, text.s, "skiphash_core_drained_nodes_total") == 0 {
			t.Errorf("%s: no removed node drained after %d served removals", text.name, keys)
		}
		for _, gone := range []string{
			"skiphash_core_maintainer_wakeups_total",
			"skiphash_core_orphaned_total",
			"skiphash_core_adopted_total",
			"skiphash_shard_orphan_backlog",
		} {
			if strings.Contains(text.s, gone) {
				t.Errorf("%s still exports %s", text.name, gone)
			}
		}
	}

	// Every map the daemon builds runs on one STM runtime, so a
	// namespace's commits count in the STM series too.
	before := nonZero(t, scrape(t, metURL), "skiphash_stm_commits_total")
	c, err = client.Dial(srvAddr, client.Options{})
	if err != nil {
		t.Fatalf("dial %s: %v", srvAddr, err)
	}
	ns, err := c.CreateNamespace("smoke", client.NamespaceOptions{})
	if err != nil {
		t.Fatalf("CreateNamespace: %v", err)
	}
	const nsKeys = 100
	for k := range nsKeys {
		if ok, err := ns.Insert([]byte{byte(k)}, []byte{byte(k)}); err != nil || !ok {
			t.Fatalf("namespace Insert(%d) = %v, %v", k, ok, err)
		}
	}
	c.Close()
	if after := nonZero(t, scrape(t, metURL), "skiphash_stm_commits_total"); after-before < nsKeys {
		t.Errorf("skiphash_stm_commits_total grew by %v over %d namespace inserts", after-before, nsKeys)
	}

	d.stop()
	if !strings.Contains(d.log(), "final stats:") {
		t.Fatalf("no final stats line on drain; log:\n%s", d.log())
	}
}

// TestSmokeFollower runs a durable primary and a durable follower that
// follows it on the primary's serving address. The follower serves a
// primary write behind a read barrier, drains on SIGTERM, and restarted
// over its directory serves the write again, resuming where it stopped
// rather than taking a full resync. -follow without -dir is refused.
func TestSmokeFollower(t *testing.T) {
	if testing.Short() {
		t.Skip("exec smoke test skipped in -short mode")
	}
	bin := buildDaemon(t)
	out, err := exec.Command(bin, "-addr", "127.0.0.1:0", "-follow", "127.0.0.1:1").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(string(out), "-follow requires -dir") {
		t.Fatalf("-follow without -dir: %v\n%s", err, out)
	}

	primary := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-dir", t.TempDir(), "-fsync", "none", "-quiet")
	primAddr := primary.await(servingRe)
	pc, err := client.Dial(primAddr, client.Options{})
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer pc.Close()
	if _, err := pc.Put(7, 70); err != nil {
		t.Fatalf("Put: %v", err)
	}
	barrier, err := pc.Watermark()
	if err != nil {
		t.Fatalf("Watermark: %v", err)
	}

	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		follower := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-dir", dir, "-follow", primAddr, "-quiet")
		addr := follower.await(servingRe)
		// The follower is its client's only server, so GetAt either
		// passes the barrier there or reads there unbarriered: wait for
		// its watermark first.
		fc, err := client.Dial(addr, client.Options{Replicas: []string{addr}})
		if err != nil {
			t.Fatalf("run %d: dial follower: %v", run, err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for w, err := fc.Watermark(); err != nil || w <= barrier; w, err = fc.Watermark() {
			if time.Now().After(deadline) {
				t.Fatalf("run %d: follower watermark %d (%v) never passed %d; log:\n%s", run, w, err, barrier, follower.log())
			}
			time.Sleep(10 * time.Millisecond)
		}
		if v, ok, err := fc.GetAt(7, barrier); err != nil || !ok || v != 70 {
			t.Fatalf("run %d: follower GetAt(7) = %d %v %v, want 70", run, v, ok, err)
		}
		stats, err := fc.ServerStats()
		if err != nil {
			t.Fatalf("run %d: ServerStats: %v", run, err)
		}
		// The first run's initial sync is its one full resync; the
		// restart resumes from the saved position.
		if n := nonZero(t, string(stats), "skiphash_repl_resyncs_total"); n != float64(1-run) {
			t.Fatalf("run %d: %v full resyncs, want %d", run, n, 1-run)
		}
		fc.Close()
		follower.stop()
	}
	primary.stop()
}

// servingRe matches the daemon's listen line and captures its TCP
// address.
var servingRe = regexp.MustCompile(`serving \d+ shards on tcp://([^ ]+) `)

// buildDaemon builds the daemon binary into a temporary directory.
// SKIPHASH_SMOKE_RACE builds it with the race detector.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "skiphashd")
	buildArgs := []string{"build", "-o", bin}
	if os.Getenv("SKIPHASH_SMOKE_RACE") != "" {
		// The daemon is exec'd, so the harness's own -race does not
		// instrument it; the nightly lane opts the binary in explicitly.
		buildArgs = append(buildArgs, "-race")
	}
	if out, err := exec.Command("go", append(buildArgs, ".")...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running skiphashd whose log the test reads.
type daemon struct {
	t        *testing.T
	cmd      *exec.Cmd
	mu       sync.Mutex
	lines    []string
	scanDone chan struct{}
}

// startDaemon starts bin with args and keeps draining its stderr, so
// the child never blocks on the pipe. It is killed at cleanup unless
// stop ran.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{t: t, cmd: exec.Command(bin, args...), scanDone: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill() })
	go func() {
		defer close(d.scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.mu.Lock()
			d.lines = append(d.lines, sc.Text())
			d.mu.Unlock()
		}
	}()
	return d
}

// await waits for a log line matching re and returns its first group.
func (d *daemon) await(re *regexp.Regexp) string {
	d.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.mu.Lock()
		for _, line := range d.lines {
			if m := re.FindStringSubmatch(line); m != nil {
				d.mu.Unlock()
				return m[1]
			}
		}
		d.mu.Unlock()
		if time.Now().After(deadline) {
			d.t.Fatalf("daemon never logged %v; log:\n%s", re, d.log())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop sends SIGTERM and requires a clean exit.
func (d *daemon) stop() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatalf("SIGTERM: %v", err)
	}
	// Drain stderr to EOF before Wait — Wait closes the pipe and would
	// race the scanner out of the final log lines.
	<-d.scanDone
	if err := d.cmd.Wait(); err != nil {
		d.t.Fatalf("daemon exit: %v; log:\n%s", err, d.log())
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.lines, "\n")
}

// scrape returns the text exposition served at url.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read scrape: %v", err)
	}
	return string(body)
}

// nonZero extracts the value of an unlabeled counter sample from a
// text exposition, returning 0 when absent or zero.
func nonZero(t *testing.T, body, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.e+]+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("parse %s value %q: %v", name, m[1], err)
	}
	return v
}
