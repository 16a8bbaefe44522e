package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/skiphash"
	"repro/skiphash/client"
)

// TestServeResize drives the RESIZE op end to end: grow and shrink the
// default map while pipelined client traffic keeps hitting it, then
// audit every key.
func TestServeResize(t *testing.T) {
	m, _, addr := startServer(t, skiphash.Config{Shards: 2}, Config{})
	c := dialT(t, addr, client.Options{Conns: 2})

	for k := int64(0); k < 256; k++ {
		if _, err := c.Insert(k, k*3); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := int64(1000 + 100*w)
			for i := int64(0); !stop.Load(); i++ {
				k := base + i%100
				if _, err := c.Put(k, i); err != nil {
					errCh <- fmt.Errorf("writer %d Put(%d): %w", w, k, err)
					return
				}
				if _, _, err := c.Get(k); err != nil {
					errCh <- fmt.Errorf("writer %d Get(%d): %w", w, k, err)
					return
				}
			}
		}()
	}

	for _, n := range []int{8, 2, 16} {
		got, err := c.Resize(n)
		if err != nil || got != n {
			t.Fatalf("Resize(%d) = %d, %v", n, got, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if got := m.Shards(); got != 16 {
		t.Fatalf("live shard count %d, want 16", got)
	}
	for k := int64(0); k < 256; k++ {
		if v, ok, err := c.Get(k); err != nil || !ok || v != k*3 {
			t.Fatalf("Get(%d) after resizes = %d, %v, %v", k, v, ok, err)
		}
	}
	if st := m.ResizeStats(); st.Resizes != 3 || st.Cutovers == 0 {
		t.Fatalf("ResizeStats = %+v, want 3 resizes with cutovers", st)
	}
}

// TestServeResizeUnresizable: a backend that is not a Resizer (a
// decorated one, like the replica's) must answer RESIZE with an error,
// not a torn connection.
func TestServeResizeUnresizable(t *testing.T) {
	m := skiphash.NewSharded[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Shards: 1})
	srv := New(readOnlyBackend{NewShardedBackend(m)}, Config{})
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
	c := dialT(t, ln.Addr().String(), client.Options{})
	if _, err := c.Resize(4); err == nil {
		t.Fatal("Resize on a backend that is no Resizer succeeded")
	}
	// The connection must survive the refused op.
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after refused Resize: %v", err)
	}
}

// TestNamespaceResize exercises the v2 RESIZE: per-namespace resizing
// leaves other namespaces untouched, and a dropped namespace answers
// ErrNamespaceNotFound.
func TestNamespaceResize(t *testing.T) {
	_, addr := startNsServer(t, RegistryConfig{Map: skiphash.Config{Shards: 2}}, Config{})
	c := dialT(t, addr, client.Options{Conns: 2})

	a, err := c.CreateNamespace("alpha", client.NamespaceOptions{})
	if err != nil {
		t.Fatalf("CreateNamespace(alpha): %v", err)
	}
	b, err := c.CreateNamespace("beta", client.NamespaceOptions{})
	if err != nil {
		t.Fatalf("CreateNamespace(beta): %v", err)
	}
	for i := 0; i < 128; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if ok, err := a.Insert(k, []byte("a")); err != nil || !ok {
			t.Fatalf("alpha Insert: %v %v", ok, err)
		}
		if ok, err := b.Insert(k, []byte("b")); err != nil || !ok {
			t.Fatalf("beta Insert: %v %v", ok, err)
		}
	}

	if got, err := a.Resize(8); err != nil || got != 8 {
		t.Fatalf("alpha Resize(8) = %d, %v", got, err)
	}
	for i := 0; i < 128; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if v, ok, err := a.Get(k); err != nil || !ok || string(v) != "a" {
			t.Fatalf("alpha Get(%s) = %q, %v, %v", k, v, ok, err)
		}
		if v, ok, err := b.Get(k); err != nil || !ok || string(v) != "b" {
			t.Fatalf("beta Get(%s) = %q, %v, %v", k, v, ok, err)
		}
	}

	if err := c.DropNamespace("beta"); err != nil {
		t.Fatalf("DropNamespace(beta): %v", err)
	}
	if _, err := b.Resize(4); !errors.Is(err, client.ErrNamespaceNotFound) {
		t.Fatalf("Resize on dropped namespace: %v, want ErrNamespaceNotFound", err)
	}
}
