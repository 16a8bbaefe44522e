package client

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/wire"
)

// scriptServer accepts one connection and plays a script against it: it
// reads window requests, hands them to answer, writes the response
// frames answer appended to out, and repeats until the client hangs up.
// Reading a whole window first makes the order (and the ids) of the
// replies the script's choice alone.
func scriptServer(t *testing.T, window int, answer func(reqs []wire.Request, out []byte) []byte) *Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		fr := wire.NewFrameReader(bufio.NewReader(nc), wire.MaxRequestPayload)
		reqs := make([]wire.Request, 0, window)
		var out []byte
		for {
			reqs = reqs[:0]
			for len(reqs) < window {
				payload, err := fr.Next()
				if err != nil {
					return
				}
				req, err := wire.ParseRequest(payload)
				if err != nil {
					t.Errorf("script server: %v", err)
					return
				}
				reqs = append(reqs, req)
			}
			out = answer(reqs, out[:0])
			if _, err := nc.Write(out); err != nil {
				return
			}
		}
	}()
	cl, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl.Conn(0)
}

// appendReply answers req the way the tests check it: a Get of k finds
// 7k; an insert or a delete reports false.
func appendReply(out []byte, req *wire.Request) []byte {
	resp := wire.Response{ID: req.ID, Op: req.Op}
	if req.Op == wire.OpGet {
		resp.Ok, resp.Val = true, 7*req.Key
	}
	return wire.AppendResponse(out, &resp)
}

// startGets pipelines one Get per key and flushes.
func startGets(t *testing.T, cn *Conn, keys []int64) []*Call {
	t.Helper()
	calls := make([]*Call, len(keys))
	for i, k := range keys {
		call, err := cn.Start(&wire.Request{Op: wire.OpGet, Key: k})
		if err != nil {
			t.Fatalf("Start %d: %v", i, err)
		}
		calls[i] = call
	}
	if err := cn.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return calls
}

func seq(n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	return keys
}

// A window answered in reverse must reach its calls by id, not by
// arrival order. The window is larger than the initial ring and is sent
// twice, so the second pass runs on recycled calls in a grown ring.
func TestReverseOrderWindowDemuxesByID(t *testing.T) {
	const window = 4 * initialRing
	cn := scriptServer(t, window, func(reqs []wire.Request, out []byte) []byte {
		for i := len(reqs) - 1; i >= 0; i-- {
			out = appendReply(out, &reqs[i])
		}
		return out
	})
	for pass := 0; pass < 2; pass++ {
		for i, call := range startGets(t, cn, seq(window)) {
			resp, err := call.Wait()
			if err != nil || !resp.Ok || resp.Val != 7*int64(i) {
				t.Fatalf("pass %d call %d = %d %v %v; want %d true nil", pass, i, resp.Val, resp.Ok, err, 7*i)
			}
		}
	}
	if len(cn.ring) < window {
		t.Fatalf("ring has %d slots after %d calls in flight", len(cn.ring), window)
	}
}

// A response whose id no call in flight carries is a protocol error: it
// is delivered nowhere — least of all to a call that now owns the slot —
// and the connection fails naming the id.
func TestUnknownResponseIDFailsConn(t *testing.T) {
	// victim is the call in flight when the bad frame arrives.
	wantFailed := func(t *testing.T, cn *Conn, victim *Call) {
		t.Helper()
		resp, err := victim.Wait()
		if !errors.Is(err, ErrConnClosed) || !strings.Contains(err.Error(), "id 1,") {
			t.Fatalf("call in flight = %+v, %v; want ErrConnClosed naming id 1", resp, err)
		}
		if resp.Ok || resp.Val != 0 {
			t.Fatalf("call in flight was handed the stray response: %+v", resp)
		}
		if _, err := cn.Start(&wire.Request{Op: wire.OpPing}); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("Start after the protocol error = %v, want the sticky ErrConnClosed", err)
		}
	}
	t.Run("answered twice", func(t *testing.T) {
		cn := scriptServer(t, 2, func(reqs []wire.Request, out []byte) []byte {
			out = appendReply(out, &reqs[0])
			return appendReply(out, &reqs[0])
		})
		calls := startGets(t, cn, []int64{3, 4})
		if resp, err := calls[0].Wait(); err != nil || resp.Val != 21 {
			t.Fatalf("first call = %d, %v; want 21, nil", resp.Val, err)
		}
		wantFailed(t, cn, calls[1])
	})
	t.Run("stale id on a reused slot", func(t *testing.T) {
		// Id 1 was answered a ring's length ago: its slot, and quite
		// possibly its Call, now serve the request the server answers
		// with that id again.
		const reuse = initialRing + 1
		cn := scriptServer(t, 1, func(reqs []wire.Request, out []byte) []byte {
			if reqs[0].ID == reuse {
				reqs[0].ID = 1
			}
			return appendReply(out, &reqs[0])
		})
		for k := int64(1); k < reuse; k++ {
			if resp, err := cn.Do(&wire.Request{Op: wire.OpGet, Key: k}); err != nil || !resp.Ok || resp.Val != 7*k {
				t.Fatalf("Get(%d) = %d %v %v", k, resp.Val, resp.Ok, err)
			}
		}
		if len(cn.ring) != initialRing {
			t.Fatalf("ring grew to %d slots under a closed loop", len(cn.ring))
		}
		wantFailed(t, cn, startGets(t, cn, []int64{reuse})[0])
	})
}

func TestSecondWaitPanics(t *testing.T) {
	cn := scriptServer(t, 1, func(reqs []wire.Request, out []byte) []byte {
		return appendReply(out, &reqs[0])
	})
	call := startGets(t, cn, []int64{5})[0]
	if resp, err := call.Wait(); err != nil || resp.Val != 35 {
		t.Fatalf("Wait = %d, %v", resp.Val, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Wait on one Call did not panic")
		}
	}()
	call.Wait()
}

// Eight goroutines share one connection with 256 calls in flight each:
// the ring grows under the writers while the reader retires batches, and
// every reply must still be the one for its own request.
func TestSharedConnStress(t *testing.T) {
	const (
		workers = 8
		window  = 256
		rounds  = 12
	)
	cn, _ := serveUnix(t)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reqs := make([]wire.Request, window)
			calls := make([]*Call, window)
			for round := 0; round < rounds; round++ {
				for i := range reqs {
					// Keys past allocKeys are absent from the preloaded map.
					reqs[i] = wire.Request{Op: wire.OpGet, Key: int64((w*window + i + round) % (2 * allocKeys))}
					call, err := cn.Start(&reqs[i])
					if err != nil {
						t.Errorf("worker %d: Start: %v", w, err)
						return
					}
					calls[i] = call
				}
				if err := cn.Flush(); err != nil {
					t.Errorf("worker %d: Flush: %v", w, err)
					return
				}
				for i, call := range calls {
					k := reqs[i].Key
					resp, err := call.Wait()
					if err != nil || resp.ID != reqs[i].ID || resp.Ok != (k < allocKeys) || (resp.Ok && resp.Val != 7*k) {
						t.Errorf("worker %d: Get(%d) as id %d = id %d, %d %v, %v", w, k, reqs[i].ID, resp.ID, resp.Val, resp.Ok, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if len(cn.ring) < window {
		t.Fatalf("ring has %d slots after windows of %d", len(cn.ring), window)
	}
}
