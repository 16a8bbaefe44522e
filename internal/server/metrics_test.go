package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/obs"
	"repro/internal/stm"
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

// TestSlowOpTracerRunRetries checks that a trace entry carries the
// retries of its own coalesced run. Aborts are injected into one
// namespace's runtime while a second connection writes to another
// namespace in the same window: the first namespace's writes report
// retries, the second's and every pure-Get run's read 0.
func TestSlowOpTracerRunRetries(t *testing.T) {
	tr := obs.NewTracer(256)
	tr.SetThreshold(0) // trace everything
	srv, addr := startNsServer(t, RegistryConfig{}, Config{Tracer: tr})
	hotC, coldC := dialT(t, addr, client.Options{}), dialT(t, addr, client.Options{})
	hot, err := hotC.CreateNamespace("hot", client.NamespaceOptions{})
	if err != nil {
		t.Fatalf("CreateNamespace: %v", err)
	}
	cold, err := coldC.CreateNamespace("cold", client.NamespaceOptions{})
	if err != nil {
		t.Fatalf("CreateNamespace: %v", err)
	}
	inj := stm.NewAbortInjector(3, 1, 4)
	srv.reg.byName["hot"].be.(*MapBackend[string, string]).Runtime().SetHooks(inj)

	const n = 32
	var wg sync.WaitGroup
	for _, m := range []*client.Map[[]byte, []byte]{hot, cold} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				k := []byte(fmt.Sprintf("k%03d", i))
				if _, err := m.Insert(k, k); err != nil {
					t.Errorf("%s Insert: %v", m.Name(), err)
				}
				if _, _, err := m.Get(k); err != nil {
					t.Errorf("%s Get: %v", m.Name(), err)
				}
			}
		}()
	}
	wg.Wait()
	// observe records a cycle's entries after its response is flushed.
	deadline := time.Now().Add(2 * time.Second)
	for tr.Total() < 4*n+2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	var hotRetries uint64
	runs := map[string]int{}
	for _, e := range tr.Dump() {
		runs[e.Namespace+"/"+e.Path]++
		switch {
		case e.Namespace == "hot" && e.Path == "atomic":
			hotRetries += e.Aborts
		case e.Aborts != 0:
			t.Errorf("%s %s entry on the %s path reports %d aborts, want 0", e.Namespace, e.Op, e.Path, e.Aborts)
		}
	}
	for _, k := range []string{"hot/atomic", "hot/reads", "cold/atomic", "cold/reads"} {
		if runs[k] != n {
			t.Errorf("%d %s entries, want %d (%v)", runs[k], k, n, runs)
		}
	}
	// Every retry follows an injected abort; an abort injected before
	// the body runs retries nothing.
	if hotRetries == 0 || hotRetries > inj.Aborts() {
		t.Fatalf("hot writes report %d retries, want 1..%d (the injected aborts)", hotRetries, inj.Aborts())
	}
}

// TestDrainCycleAllocBudget pins the hot loop's allocations for both
// frame families: the pure-Get cycle allocates nothing in either, with
// or without metrics (and an armed-but-unmatched tracer), observation
// included — a v2 lookup reads its key through a view of the request's
// bytes. The mixed rows are the 64-request cycle's 16 Puts: the map's own
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
				if row.obs == cycleMetrics && c.notes[0].ns.reqLatency.Count() == 0 {
					t.Fatal("latency histogram saw no observations")
				}
			})
		}
	}
}
