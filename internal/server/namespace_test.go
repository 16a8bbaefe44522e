package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fsfake"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/stm"
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
	var nss []*client.Map[[]byte, []byte]
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
	results, err := ns.Atomic([]client.Step[[]byte, []byte]{
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

// TestNamespaceReopenFsyncMeta: a namespace under Root reopens under
// the policy its fsync selector file records, which stays recorded; one
// whose file holds no valid selector reopens under the registry default
// (and the file is rewritten to say so) instead of refusing the
// registry.
func TestNamespaceReopenFsyncMeta(t *testing.T) {
	for _, tc := range []struct {
		name, raw string
		want      uint8
	}{
		{"always", strconv.Itoa(int(wire.NsFsyncAlways)), wire.NsFsyncAlways},
		{"garbage", "garbage", wire.NsFsyncDefault},
		{"9", "9", wire.NsFsyncDefault},
		{"-1", "-1", wire.NsFsyncDefault},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			reg, err := NewRegistry(RegistryConfig{Root: root})
			if err != nil {
				t.Fatalf("NewRegistry: %v", err)
			}
			if _, err := reg.Create("ns", true, wire.NsFsyncAlways); err != nil {
				t.Fatalf("Create: %v", err)
			}
			if err := reg.CloseAll(); err != nil {
				t.Fatalf("CloseAll: %v", err)
			}
			meta := filepath.Join(root, "ns-ns", fsyncMetaFile)
			if err := os.WriteFile(meta, []byte(tc.raw+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			reg, err = NewRegistry(RegistryConfig{Root: root})
			if err != nil {
				t.Fatalf("reopen with nsfsync %q: %v", tc.raw, err)
			}
			defer reg.CloseAll()
			if got := reg.List(); len(got) != 1 || got[0].Name != "ns" {
				t.Fatalf("reopened namespaces = %+v, want ns", got)
			}
			b, err := os.ReadFile(meta)
			if err != nil || strings.TrimSpace(string(b)) != strconv.Itoa(int(tc.want)) {
				t.Fatalf("nsfsync after reopen = %q, %v; want selector %d", b, err, tc.want)
			}
		})
	}
}

// TestNamespaceCreateFsyncMetaFails: when the fsync selector file cannot
// be written (here its path is a directory), Create fails, registers
// nothing, and closes the map it opened, so the same directory opens
// again once the obstacle is gone.
func TestNamespaceCreateFsyncMetaFails(t *testing.T) {
	root := t.TempDir()
	reg, err := NewRegistry(RegistryConfig{Root: root})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer reg.CloseAll()
	meta := filepath.Join(root, "ns-ns", fsyncMetaFile)
	if err := os.MkdirAll(meta, 0o755); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if ns, err := reg.Create("ns", true, wire.NsFsyncAlways); err == nil {
		t.Fatalf("Create with %s a directory = %v, want an error", fsyncMetaFile, ns.info())
	}
	if got := reg.List(); len(got) != 0 {
		t.Fatalf("namespaces after a failed Create = %+v, want none", got)
	}
	if _, err := os.Stat(meta + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary selector file left behind: %v", err)
	}
	// The durable map's flusher and snapshotter exit when it is closed.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed Create, %d before: its map was left open", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := os.Remove(meta); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("ns", true, wire.NsFsyncAlways); err != nil {
		t.Fatalf("Create after removing the obstacle: %v", err)
	}
	b, err := os.ReadFile(meta)
	if err != nil || strings.TrimSpace(string(b)) != strconv.Itoa(int(wire.NsFsyncAlways)) {
		t.Fatalf("%s = %q, %v; want the always selector", fsyncMetaFile, b, err)
	}
}

// put writes k=v into a namespace and syncs its log.
func put(ns *namespace, k, v string) error {
	be := ns.backend()
	req := []wire.Request{{Op: wire.OpPut2, BKey: []byte(k), BVal: []byte(v)}}
	if _, err := be.Atomic(req, make([]wire.Response, 1)); err != nil {
		return err
	}
	return be.Sync()
}

// putSync is put that fails the test on an error.
func putSync(t *testing.T, ns *namespace, k, v string) {
	t.Helper()
	if err := put(ns, k, v); err != nil {
		t.Fatalf("put %s: %v", k, err)
	}
}

// getOf reads k from a namespace.
func getOf(ns *namespace, k string) (string, bool) {
	req := wire.Request{Op: wire.OpGet2, BKey: []byte(k)}
	var resp wire.Response
	answer(&resp, &req)
	ns.backend().Get(&req, &resp)
	return string(resp.BVal), resp.Ok
}

// TestNamespacesShareOneClock: a registry whose base configuration
// carries a runtime (core.OnRuntime, as skiphashd builds it) builds
// every namespace on it, so two namespaces written in turn log strictly
// increasing commit stamps, though the second was created well after
// the first. On runtimes of their own each namespace's clock counts
// from its creation, and the later one's stamps fall below the
// earlier one's.
func TestNamespacesShareOneClock(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{
		Root:       t.TempDir(),
		Map:        core.OnRuntime(skiphash.Config{}, stm.New()),
		Durability: skiphash.Durability{Fsync: skiphash.FsyncNone},
	})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer reg.CloseAll()
	a, err := reg.Create("a", true, wire.NsFsyncDefault)
	if err != nil {
		t.Fatalf("Create a: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	b, err := reg.Create("b", true, wire.NsFsyncDefault)
	if err != nil {
		t.Fatalf("Create b: %v", err)
	}
	const rounds = 10
	for i := range rounds {
		putSync(t, a, strconv.Itoa(i), "a")
		putSync(t, b, strconv.Itoa(i), "b")
	}
	// stamps reads a namespace's commit stamps back from its log.
	stamps := func(ns *namespace) []uint64 {
		st := ns.backend().(*MapBackend[string, string]).Map.Persister().(*persist.Store[string, string])
		rd := st.NewLogReader()
		defer rd.Close()
		var frames []byte
		for pos, end := int64(0), rd.End(); pos < end; pos = int64(len(frames)) {
			if frames, err = rd.Read(frames, pos, int(end-pos)); err != nil {
				t.Fatalf("%s: read log at %d: %v", ns.name, pos, err)
			}
		}
		var out []uint64
		if err := persist.WalkFrames(frames, func(_ int64, stamp, _ uint64, _ []byte) error {
			out = append(out, stamp)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", ns.name, err)
		}
		if len(out) != rounds {
			t.Fatalf("%s logged %d records, want %d", ns.name, len(out), rounds)
		}
		return out
	}
	sa, sb := stamps(a), stamps(b)
	var prev uint64
	for i := range rounds {
		for j, stamp := range []uint64{sa[i], sb[i]} {
			if stamp <= prev {
				t.Fatalf("round %d: %s's write is stamped %d, not above the write before it (%d)", i, "ab"[j:j+1], stamp, prev)
			}
			prev = stamp
		}
	}
}

// TestNamespaceDropRacesCreate: a Create of the name a Drop is removing
// waits until the drop is done, so the drop neither deletes the new
// namespace's directory nor unregisters its latency series, though a
// run held the old namespace while the create was issued.
func TestNamespaceDropRacesCreate(t *testing.T) {
	root := t.TempDir()
	or := obs.NewRegistry()
	reg, err := NewRegistry(RegistryConfig{Root: root, Obs: or})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	old, err := reg.Create("x", true, wire.NsFsyncAlways)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	putSync(t, old, "old", "1")
	old.mu.RLock() // a run in flight
	dropped := make(chan error, 1)
	go func() { dropped <- reg.Drop("x") }()
	// Go on once the drop has freed the name or holds the registry lock.
	for held := 0; held < 5; time.Sleep(time.Millisecond) {
		if !reg.mu.TryRLock() {
			held++
			continue
		}
		freed := reg.byName["x"] == nil
		reg.mu.RUnlock()
		if freed {
			break
		}
		held = 0
	}
	var createErr error
	created := make(chan struct{})
	go func() {
		defer close(created)
		ns, err := reg.Create("x", true, wire.NsFsyncAlways)
		if err == nil {
			err = put(ns, "new", "2")
		}
		createErr = err
	}()
	// Give a create the drop does not hold off time to finish inside it.
	select {
	case <-created:
	case <-time.After(200 * time.Millisecond):
	}
	old.mu.RUnlock()
	if err := <-dropped; err != nil {
		t.Fatalf("Drop: %v", err)
	}
	<-created
	if createErr != nil {
		t.Fatalf("Create and write during the drop: %v", createErr)
	}
	if series := `skiphash_server_request_seconds_count{ns="x"}`; !strings.Contains(string(or.Render()), series) {
		t.Errorf("the new namespace's %s is not registered", series)
	}
	if err := reg.CloseAll(); err != nil {
		t.Fatalf("CloseAll: %v", err)
	}
	reg, err = NewRegistry(RegistryConfig{Root: root})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reg.CloseAll()
	if got := reg.List(); len(got) != 1 || got[0].Name != "x" {
		t.Fatalf("reopened namespaces = %+v, want x", got)
	}
	ns := reg.lookup(reg.List()[0].ID)
	if v, ok := getOf(ns, "new"); !ok || v != "2" {
		t.Errorf("after reopen new = %q, %v; want the synced write", v, ok)
	}
	if _, ok := getOf(ns, "old"); ok {
		t.Error("after reopen the dropped namespace's key is back")
	}
}

// TestNamespaceDropCrashAtomic: a crash part-way through a drop's
// removal (here one of the tombstone's files fails to go) leaves a
// tombstone, not an ns-<name> directory holding part of the dropped
// namespace, and the next NewRegistry deletes the tombstone.
func TestNamespaceDropCrashAtomic(t *testing.T) {
	root := t.TempDir()
	inj := fsfake.NewInjector(nil, 1)
	reg, err := NewRegistry(RegistryConfig{Root: root, Durability: persist.OnDisk(skiphash.Durability{}, inj)})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	ns, err := reg.Create("x", true, wire.NsFsyncAlways)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 20; i++ {
		putSync(t, ns, fmt.Sprint("k", i), "v")
	}
	if err := ns.backend().Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	putSync(t, ns, "after", "v")

	// The drop's removals: a stale tombstone's (there is none), the
	// tombstone's own first try, then its three files by name (nsfsync,
	// the snapshot, the segment), then the emptied tombstone. One of
	// the files fails.
	inj.Arm(fsfake.Remove, 3, 5, syscall.EIO)
	if err := reg.Drop("x"); err == nil {
		t.Fatal("Drop with the removal cut short returned nil")
	}
	var cut []string
	for _, c := range inj.Take() {
		if c.Err != nil {
			cut = append(cut, filepath.Base(c.Path))
		}
	}
	if len(cut) != 1 {
		t.Fatalf("the removal was cut at %q, want once", cut)
	}
	reg, err = NewRegistry(RegistryConfig{Root: root})
	if err != nil {
		t.Fatalf("reopen after the cut drop: %v", err)
	}
	defer reg.CloseAll()
	if got := reg.List(); len(got) != 0 {
		t.Fatalf("dropped namespace reopened as %+v", got)
	}
	if left, _ := os.ReadDir(root); len(left) != 0 {
		t.Fatalf("%s still holds %v after the reopen", root, left)
	}
}

// TestNamespaceSyncCounts pins the fsyncs of a durable namespace's
// create (its directory's entry, and the fsync-policy file published
// through a synced temporary file) and drop (the rename to a
// tombstone), as persist's TestSyncCounts does for the store.
func TestNamespaceSyncCounts(t *testing.T) {
	rec := fsfake.NewRecorder(nil)
	reg, err := NewRegistry(RegistryConfig{Root: t.TempDir(), Durability: persist.OnDisk(skiphash.Durability{}, rec)})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer reg.CloseAll()
	for _, step := range []struct {
		name        string
		files, dirs int
		run         func() error
	}{
		{"NsCreate", 1, 2, func() error { _, err := reg.Create("x", true, wire.NsFsyncAlways); return err }},
		{"NsDrop", 0, 1, func() error { return reg.Drop("x") }},
	} {
		rec.Take()
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		calls := rec.Take()
		if f, d := fsfake.Count(calls, fsfake.FileSync), fsfake.Count(calls, fsfake.DirSync); f != step.files || d != step.dirs {
			t.Fatalf("%s: %d file and %d directory fsyncs, want %d and %d: %v", step.name, f, d, step.files, step.dirs, calls)
		}
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
