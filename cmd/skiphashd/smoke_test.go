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

	traceMs := os.Getenv("SKIPHASH_SMOKE_TRACE_MS")
	if traceMs == "" {
		traceMs = "50"
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-metrics", "127.0.0.1:0",
		"-trace-slow-ms", traceMs,
		"-stats-every", "1s",
		"-quiet")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer cmd.Process.Kill()

	// The daemon logs its bound addresses; collect them (and keep
	// draining stderr so the child never blocks on the pipe).
	var (
		mu      sync.Mutex
		lines   []string
		srvAddr string
		shards  int
		metURL  string
	)
	servingRe := regexp.MustCompile(`serving (\d+) shards on tcp://([^ ]+) `)
	metricsRe := regexp.MustCompile(`metrics on (http://[^ ]+/metrics)`)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			mu.Lock()
			lines = append(lines, sc.Text())
			if m := servingRe.FindStringSubmatch(sc.Text()); m != nil {
				shards, _ = strconv.Atoi(m[1])
				srvAddr = m[2]
			}
			if m := metricsRe.FindStringSubmatch(sc.Text()); m != nil {
				metURL = m[1]
			}
			mu.Unlock()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		ok := srvAddr != "" && metURL != ""
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon did not announce its addresses; log:\n%s", logText(&mu, &lines))
		}
		time.Sleep(10 * time.Millisecond)
	}

	c, err := client.Dial(srvAddr, client.Options{})
	if err != nil {
		t.Fatalf("dial %s: %v", srvAddr, err)
	}
	// Every served removal unstitches its node when it commits, so the
	// drained-nodes counter moves with the first one; remove 256 keys
	// per shard, and never fewer than 1024, so every shard removes.
	mu.Lock()
	keys := int64(max(1024, 256*shards))
	mu.Unlock()
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

	resp, err := http.Get(metURL)
	if err != nil {
		t.Fatalf("scrape %s: %v", metURL, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read scrape: %v", err)
	}
	for _, text := range []struct{ name, s string }{
		{"scrape", string(body)},
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

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	// Drain stderr to EOF before Wait — Wait closes the pipe and would
	// race the scanner out of the final log lines.
	<-scanDone
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v; log:\n%s", err, logText(&mu, &lines))
	}
	if !strings.Contains(logText(&mu, &lines), "final stats:") {
		t.Fatalf("no final stats line on drain; log:\n%s", logText(&mu, &lines))
	}
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

func logText(mu *sync.Mutex, lines *[]string) string {
	mu.Lock()
	defer mu.Unlock()
	return strings.Join(*lines, "\n")
}
