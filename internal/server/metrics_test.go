package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/obs"
	"repro/skiphash/client"
)

// scrape fetches url and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body)
}

// TestMetricsScrapeAndNamespaceLifecycle drives client traffic against a
// metrics-enabled server and asserts over a real HTTP scrape: the
// default namespace's latency series counts requests, a created
// namespace's series appears, and dropping the namespace removes it.
func TestMetricsScrapeAndNamespaceLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr := startNsServer(t,
		RegistryConfig{Obs: reg},
		Config{Obs: reg})
	ms := httptest.NewServer(reg)
	defer ms.Close()

	c := dialT(t, addr, client.Options{})
	for k := int64(0); k < 32; k++ {
		if _, err := c.Put(k, k); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if _, _, err := c.Get(k); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}

	body := scrape(t, ms.URL)
	if !strings.Contains(body, `skiphash_server_request_seconds_count{ns="default"}`) {
		t.Fatalf("default namespace latency series missing:\n%s", body)
	}
	if !strings.Contains(body, "skiphash_server_requests_total") {
		t.Fatalf("request counter missing:\n%s", body)
	}
	if strings.Contains(body, `skiphash_server_requests_total 0`+"\n") {
		t.Fatalf("request counter still zero after traffic:\n%s", body)
	}

	// A created namespace's series appears immediately (registered at
	// create, not on first traffic)...
	ns, err := c.CreateNamespace("orders", client.NamespaceOptions{})
	if err != nil {
		t.Fatalf("CreateNamespace: %v", err)
	}
	if !strings.Contains(scrape(t, ms.URL), `skiphash_server_request_seconds_count{ns="orders"}`) {
		t.Fatal("orders namespace series missing after create")
	}
	if _, err := ns.Insert([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("ns Insert: %v", err)
	}
	// ...and disappears with the namespace.
	if err := c.DropNamespace("orders"); err != nil {
		t.Fatalf("DropNamespace: %v", err)
	}
	if strings.Contains(scrape(t, ms.URL), `ns="orders"`) {
		t.Fatal("orders namespace series survived the drop")
	}

	// The same exposition is reachable in-band through OpStats.
	blob, err := c.ServerStats()
	if err != nil {
		t.Fatalf("ServerStats: %v", err)
	}
	if !strings.Contains(string(blob), `skiphash_server_request_seconds_count{ns="default"}`) {
		t.Fatalf("ServerStats blob missing default series:\n%s", blob)
	}
}

// TestServerStatsWithoutRegistry checks OpStats degrades to a typed
// error rather than an empty blob.
func TestServerStatsWithoutRegistry(t *testing.T) {
	_, addr := startNsServer(t, RegistryConfig{}, Config{})
	c := dialT(t, addr, client.Options{})
	if _, err := c.ServerStats(); err == nil {
		t.Fatal("ServerStats on a registry-less server did not error")
	}
}

// TestSlowOpTracer arms a zero-threshold tracer and checks entries
// carry the op, namespace, and execution path.
func TestSlowOpTracer(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(16)
	tr.SetThreshold(0) // trace everything
	_, addr := startNsServer(t,
		RegistryConfig{Obs: reg},
		Config{Obs: reg, Tracer: tr})
	c := dialT(t, addr, client.Options{})
	if _, err := c.Put(1, 1); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, _, err := c.Get(1); err != nil {
		t.Fatalf("Get: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for tr.Total() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	entries := tr.Dump()
	if len(entries) < 2 {
		t.Fatalf("tracer retained %d entries, want >= 2", len(entries))
	}
	var sawGet, sawPut bool
	for _, e := range entries {
		if e.Namespace != "default" {
			t.Errorf("entry namespace = %q, want default", e.Namespace)
		}
		switch e.Op {
		case "Get":
			sawGet = true
			if e.Path != "reads" {
				t.Errorf("Get path = %q, want reads", e.Path)
			}
		case "Put":
			sawPut = true
			if e.Path != "atomic" {
				t.Errorf("Put path = %q, want atomic", e.Path)
			}
		}
	}
	if !sawGet || !sawPut {
		t.Fatalf("missing ops in trace: get=%v put=%v (%v)", sawGet, sawPut, entries)
	}
}

// TestDrainCycleAllocBudget pins the hot loop's allocations for both
// frame families: the pure-Get cycle allocates nothing in either, with
// or without metrics (and an armed-but-unmatched tracer), observation
// included — a v2 lookup reads its key through a view of the request's
// bytes. The tracer rows read the map's STM abort count before and
// after each cycle, which sums the runtime's counter cells in place.
// The mixed rows are the 64-request cycle's 16 Puts: the map's own
// cost in v1 (a node per Put; 16 measured), plus in v2 the one
// string each Put copies its key and value into and the value buffer of
// each of the 48 Gets sharing their transaction (80 measured). Both
// mixed budgets leave the same 6 objects of headroom.
func TestDrainCycleAllocBudget(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	budget := map[string]float64{
		"v1/gets": 0, "v1/gets+metrics": 0, "v1/gets+tracer": 0, "v1/mixed": 22,
		"v2/gets": 0, "v2/gets+metrics": 0, "v2/gets+tracer": 0, "v2/mixed": 86,
	}
	for _, f := range cycleFamilies {
		for _, row := range []struct {
			name  string
			mixed bool
			obs   cycleObs
		}{{"gets", false, cycleBare}, {"gets+metrics", false, cycleMetrics}, {"gets+tracer", false, cycleTracer}, {"mixed", true, cycleBare}} {
			name := f.name + "/" + row.name
			t.Run(name, func(t *testing.T) {
				c, batch := cycleConn(t, f.v2, row.mixed, row.obs)
				allocs := testing.AllocsPerRun(100, func() { cycle(c, batch) })
				if allocs > budget[name] {
					t.Fatalf("cycle allocates %.1f/op, budget %.0f", allocs, budget[name])
				}
				if row.obs == cycleMetrics && c.nsAt[0].reqLatency.Count() == 0 {
					t.Fatal("latency histogram saw no observations")
				}
			})
		}
	}
}
