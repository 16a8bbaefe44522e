package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/skiphash"
	"repro/skiphash/client"
)

// startNsServer serves a default int64 map plus a namespace registry
// rooted at a temp dir.
func startNsServer(t *testing.T, regCfg RegistryConfig, srvCfg Config) (*Server, string) {
	t.Helper()
	if regCfg.Root == "" {
		regCfg.Root = t.TempDir()
	}
	reg, err := NewRegistry(regCfg)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	srv := NewWithRegistry(NewShardedBackend(m), reg, srvCfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
		m.Close()
	})
	return srv, ln.Addr().String()
}

func TestNamespaceLifecycleAndOps(t *testing.T) {
	_, addr := startNsServer(t, RegistryConfig{}, Config{})
	c := dialT(t, addr, client.Options{Conns: 2})

	// Three named maps, each with its own durability directory.
	var nss []*client.Namespace
	for _, name := range []string{"feeds", "articles", "sessions"} {
		ns, err := c.CreateNamespace(name, client.NamespaceOptions{Durable: true})
		if err != nil {
			t.Fatalf("CreateNamespace(%s): %v", name, err)
		}
		nss = append(nss, ns)
	}
	if _, err := c.CreateNamespace("feeds", client.NamespaceOptions{}); !errors.Is(err, client.ErrNamespaceExists) {
		t.Fatalf("duplicate create: want ErrNamespaceExists, got %v", err)
	}
	infos, err := c.Namespaces()
	if err != nil || len(infos) != 4 {
		t.Fatalf("Namespaces() = %v, %v (want default + 3)", infos, err)
	}
	if infos[0].ID != 0 || infos[0].Name != "default" {
		t.Fatalf("first listing entry = %+v, want the default namespace", infos[0])
	}

	// Same key in different namespaces stays independent.
	for i, ns := range nss {
		if ok, err := ns.Insert([]byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil || !ok {
			t.Fatalf("%s Insert: %v %v", ns.Name(), ok, err)
		}
	}
	for i, ns := range nss {
		v, ok, err := ns.Get([]byte("k"))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s Get(k) = %q, %v, %v", ns.Name(), v, ok, err)
		}
	}

	// Point ops, ranges, batches on one namespace.
	feeds := nss[0]
	for i := 0; i < 10; i++ {
		if ok, err := feeds.Insert([]byte(fmt.Sprintf("feed/%02d", i)), []byte("x")); err != nil || !ok {
			t.Fatalf("Insert feed/%02d: %v %v", i, ok, err)
		}
	}
	if replaced, err := feeds.Put([]byte("feed/03"), []byte("y")); err != nil || !replaced {
		t.Fatalf("Put: %v %v", replaced, err)
	}
	if ok, err := feeds.Remove([]byte("feed/07")); err != nil || !ok {
		t.Fatalf("Remove: %v %v", ok, err)
	}
	pairs, err := feeds.Range([]byte("feed/"), []byte("feed/~"), 0)
	if err != nil || len(pairs) != 9 {
		t.Fatalf("Range = %d pairs, %v (want 9)", len(pairs), err)
	}
	if !bytes.Equal(pairs[3].Key, []byte("feed/03")) || !bytes.Equal(pairs[3].Val, []byte("y")) {
		t.Fatalf("pairs[3] = %q=%q", pairs[3].Key, pairs[3].Val)
	}
	all, err := feeds.RangeFrom([]byte("feed/05"), 0)
	if err != nil || len(all) != 5 { // 05, 06, 08, 09 and "k"
		t.Fatalf("RangeFrom = %d pairs, %v (want 5)", len(all), err)
	}
	// Zero-length keys are legal end to end.
	if ok, err := feeds.Insert([]byte{}, []byte("empty")); err != nil || !ok {
		t.Fatalf("Insert empty key: %v %v", ok, err)
	}
	if v, ok, err := feeds.Get(nil); err != nil || !ok || string(v) != "empty" {
		t.Fatalf("Get(nil) = %q, %v, %v", v, ok, err)
	}

	// v2 data ops refuse the default namespace.
	raw := c.Conn(0)
	resp, err := raw.Do(&wire.Request{Op: wire.OpGet2, NS: 0, BKey: []byte("k")})
	if err == nil || resp.Status != wire.StatusErr {
		t.Fatalf("Get2 on ns 0: status %v, err %v (want StatusErr)", resp.Status, err)
	}

	// Drop, then every op on the stale handle fails typed.
	if err := c.DropNamespace("sessions"); err != nil {
		t.Fatalf("DropNamespace: %v", err)
	}
	if err := c.DropNamespace("sessions"); !errors.Is(err, client.ErrNamespaceNotFound) {
		t.Fatalf("double drop: want ErrNamespaceNotFound, got %v", err)
	}
	if _, _, err := nss[2].Get([]byte("k")); !errors.Is(err, client.ErrNamespaceNotFound) {
		t.Fatalf("Get on dropped ns: want ErrNamespaceNotFound, got %v", err)
	}
	if _, err := c.Namespace("sessions"); !errors.Is(err, client.ErrNamespaceNotFound) {
		t.Fatalf("resolve dropped ns: want ErrNamespaceNotFound, got %v", err)
	}
}

func TestNamespaceAtomicBatch(t *testing.T) {
	_, addr := startNsServer(t, RegistryConfig{}, Config{})
	c := dialT(t, addr, client.Options{})
	ns, err := c.CreateNamespace("batch", client.NamespaceOptions{})
	if err != nil {
		t.Fatalf("CreateNamespace: %v", err)
	}
	if ok, err := ns.Insert([]byte("a"), []byte("1")); err != nil || !ok {
		t.Fatalf("Insert: %v %v", ok, err)
	}
	results, err := ns.Atomic([]client.BStep{
		{Kind: client.StepInsert, Key: []byte("b"), Val: []byte("2")},
		{Kind: client.StepRemove, Key: []byte("a")},
		{Kind: client.StepLookup, Key: []byte("b")},
		{Kind: client.StepLookup, Key: []byte("a")},
	})
	if err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if !results[0].Ok || !results[1].Ok {
		t.Fatalf("insert/remove results: %+v", results[:2])
	}
	if !results[2].Ok || string(results[2].Val) != "2" {
		t.Fatalf("lookup(b) = %+v", results[2])
	}
	if results[3].Ok {
		t.Fatalf("lookup(a) after remove = %+v", results[3])
	}
}

func TestNamespaceDurableReopen(t *testing.T) {
	root := t.TempDir()
	addrOf := func() (addr string, shutdown func()) {
		reg, err := NewRegistry(RegistryConfig{Root: root, Durability: skiphash.Durability{Fsync: skiphash.FsyncAlways}})
		if err != nil {
			t.Fatalf("NewRegistry: %v", err)
		}
		m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
		srv := NewWithRegistry(NewShardedBackend(m), reg, Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		return ln.Addr().String(), func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-served
			m.Close()
		}
	}

	addr, shutdown := addrOf()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	ns, err := c.CreateNamespace("persistent", client.NamespaceOptions{Durable: true, Fsync: client.NsFsyncAlways})
	if err != nil {
		t.Fatalf("CreateNamespace: %v", err)
	}
	for i := 0; i < 50; i++ {
		if ok, err := ns.Insert([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil || !ok {
			t.Fatalf("Insert %d: %v %v", i, ok, err)
		}
	}
	c.Close()
	shutdown()

	// Reopen: discovery must restore the namespace and its contents.
	addr, shutdown = addrOf()
	defer shutdown()
	c, err = client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer c.Close()
	ns, err = c.Namespace("persistent")
	if err != nil {
		t.Fatalf("resolve after reopen: %v", err)
	}
	for i := 0; i < 50; i++ {
		v, ok, err := ns.Get([]byte(fmt.Sprintf("key-%03d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("after reopen Get(key-%03d) = %q, %v, %v", i, v, ok, err)
		}
	}
	pairs, err := ns.Range([]byte("key-"), []byte("key-~"), 0)
	if err != nil || len(pairs) != 50 {
		t.Fatalf("after reopen Range = %d pairs, %v", len(pairs), err)
	}
}

func TestNamespaceConnQuota(t *testing.T) {
	_, addr := startNsServer(t, RegistryConfig{MaxConns: 1}, Config{})
	c1 := dialT(t, addr, client.Options{Conns: 1})
	c2 := dialT(t, addr, client.Options{Conns: 1})
	ns1, err := c1.CreateNamespace("quota", client.NamespaceOptions{})
	if err != nil {
		t.Fatalf("CreateNamespace: %v", err)
	}
	if ok, err := ns1.Insert([]byte("k"), []byte("v")); err != nil || !ok {
		t.Fatalf("first conn Insert: %v %v", ok, err)
	}
	// The second connection is over the namespace quota: its requests
	// answer StatusBusy, but the connection survives and the default
	// namespace still serves it.
	ns2, err := c2.Namespace("quota")
	if err != nil {
		t.Fatalf("resolve on second conn: %v", err)
	}
	if _, _, err := ns2.Get([]byte("k")); !errors.Is(err, client.ErrServerBusy) {
		t.Fatalf("over-quota Get: want ErrServerBusy, got %v", err)
	}
	if _, err := c2.Insert(1, 10); err != nil {
		t.Fatalf("v1 op on over-quota conn: %v", err)
	}
	// The first connection stays within quota.
	if _, _, err := ns1.Get([]byte("k")); err != nil {
		t.Fatalf("in-quota Get: %v", err)
	}
}

func TestNamespaceDropWhileServing(t *testing.T) {
	srv, addr := startNsServer(t, RegistryConfig{}, Config{})
	c := dialT(t, addr, client.Options{Conns: 2})
	ns, err := c.CreateNamespace("volatile", client.NamespaceOptions{})
	if err != nil {
		t.Fatalf("CreateNamespace: %v", err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := ns.Put([]byte(fmt.Sprintf("w%d-%d", w, i)), []byte("v"))
				if err != nil && !errors.Is(err, client.ErrNamespaceNotFound) {
					t.Errorf("writer %d: unexpected error %v", w, err)
					return
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	if err := srv.Registry().Drop("volatile"); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	// After the drop every further op must fail typed.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := ns.Put([]byte("probe"), []byte("v"))
		if errors.Is(err, client.ErrNamespaceNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ops still succeeding after drop: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestNamespacePipelinedMixedFamilies(t *testing.T) {
	or := obs.NewRegistry()
	srv, addr := startNsServer(t, RegistryConfig{Obs: or}, Config{Obs: or})
	c := dialT(t, addr, client.Options{})
	ns, err := c.CreateNamespace("mixed", client.NamespaceOptions{})
	if err != nil {
		t.Fatalf("CreateNamespace: %v", err)
	}
	cn := c.Conn(0)
	// Interleave v1 and v2 writes in one pipelined burst; the executor
	// must split runs at family boundaries and still answer in order.
	var calls []*client.Call
	for i := 0; i < 40; i++ {
		var req wire.Request
		if i%2 == 0 {
			req = wire.Request{Op: wire.OpInsert, Key: int64(i), Val: int64(i * 10)}
		} else {
			req = wire.Request{Op: wire.OpInsert2, NS: ns.ID(),
				BKey: []byte(fmt.Sprintf("p%02d", i)), BVal: []byte("v")}
		}
		call, err := cn.Start(&req)
		if err != nil {
			t.Fatalf("Start %d: %v", i, err)
		}
		calls = append(calls, call)
	}
	if err := cn.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i, call := range calls {
		resp, err := call.Wait()
		if err != nil || !resp.Ok {
			t.Fatalf("call %d: ok=%v err=%v", i, resp.Ok, err)
		}
	}
	// No coalesced run spans two namespaces: however the burst fell into
	// drain cycles, alternating families leave every run at size 1.
	if runs, reqs := srv.met.runSize.Count(), srv.met.runSize.Sum(); runs != 40 || reqs != 40 {
		t.Fatalf("burst of 40 alternating requests executed as %d runs absorbing %d requests, want 40 runs of 1", runs, reqs)
	}
	if v, ok, err := c.Get(38); err != nil || !ok || v != 380 {
		t.Fatalf("v1 Get(38) = %d, %v, %v", v, ok, err)
	}
	if v, ok, err := ns.Get([]byte("p39")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("v2 Get(p39) = %q, %v, %v", v, ok, err)
	}
}
