package client

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/skiphash"
)

// The full request/response paths are exercised end to end against a
// live server by internal/server's tests and skipstress -net; these
// unit tests pin the pure mappings.

func TestStatusErrorMapsToMapSentinels(t *testing.T) {
	cases := []struct {
		status wire.Status
		want   error
	}{
		{wire.StatusOK, nil},
		{wire.StatusNotDurable, skiphash.ErrNotDurable},
		{wire.StatusCorrupt, skiphash.ErrCorrupt},
		{wire.StatusBusy, ErrServerBusy},
		{wire.StatusShuttingDown, ErrShuttingDown},
		{wire.StatusNsNotFound, ErrNamespaceNotFound},
		{wire.StatusNsExists, ErrNamespaceExists},
	}
	for _, c := range cases {
		err := statusError(&wire.Response{Status: c.status, Msg: "m"})
		if c.want == nil {
			if err != nil {
				t.Fatalf("%s: err = %v, want nil", c.status, err)
			}
			continue
		}
		if !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, not errors.Is %v", c.status, err, c.want)
		}
	}
	if err := statusError(&wire.Response{Status: wire.StatusErr, Msg: "disk exploded"}); err == nil {
		t.Fatal("StatusErr mapped to nil")
	}
}

func TestTypedErrorsAreTheMapsOwn(t *testing.T) {
	// The client's sentinels must be identical to the embedded map's, so
	// call sites behave the same against a local and a served map.
	if !errors.Is(ErrNotDurable, skiphash.ErrNotDurable) ||
		!errors.Is(ErrCorrupt, skiphash.ErrCorrupt) {
		t.Fatal("client sentinels diverged from skiphash sentinels")
	}
}

func TestRefusalError(t *testing.T) {
	if err := refusalError(&wire.Response{Status: wire.StatusBusy}); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("busy refusal = %v", err)
	}
	if err := refusalError(&wire.Response{Status: wire.StatusShuttingDown}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("shutdown refusal = %v", err)
	}
	if err := refusalError(&wire.Response{Status: wire.StatusOK}); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("unexpected id-0 frame = %v, want ErrConnClosed wrap", err)
	}
}

func TestDialRejectsUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", Options{DialTimeout: 100_000_000}); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
}

func TestDialRejectsNegativeConns(t *testing.T) {
	ln := holdListener(t)
	cl, err := Dial(ln.Addr().String(), Options{Conns: -1})
	if err == nil {
		cl.Close()
		t.Fatal("Dial with Options.Conns = -1 succeeded")
	}
}

// sent is the id of the last request started on cn.
func sent(cn *Conn) uint64 {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.id
}

// An argument the server would refuse — an oversized key, value or
// batch, or a negative range max — fails before anything is written,
// and the connection goes on serving: the server tears a connection
// down on an oversized frame, with every call pipelined on it.
func TestBadArgumentsFailBeforeWriting(t *testing.T) {
	cl := servedClient(t)
	ns, err := cl.CreateNamespace("guards", NamespaceOptions{})
	if err != nil {
		t.Fatalf("CreateNamespace: %v", err)
	}
	bigKey := make([]byte, wire.MaxKeyLen+1)
	bigVal := make([]byte, wire.MaxValLen+1)
	maxVal := make([]byte, wire.MaxValLen)
	steps := func(n int, s Step[[]byte, []byte]) []Step[[]byte, []byte] {
		out := make([]Step[[]byte, []byte], n)
		for i := range out {
			out[i] = s
		}
		return out
	}
	cases := []struct {
		name string
		call func() error
	}{
		{"Get key", func() error { _, _, err := ns.Get(bigKey); return err }},
		{"Put key", func() error { _, err := ns.Put(bigKey, nil); return err }},
		{"Put value", func() error { _, err := ns.Put([]byte("k"), bigVal); return err }},
		{"Range lo", func() error { _, err := ns.Range(bigKey, nil, 0); return err }},
		{"Range hi", func() error { _, err := ns.Range(nil, bigKey, 0); return err }},
		{"Range max", func() error { _, err := ns.Range(nil, []byte("z"), -1); return err }},
		{"RangeFrom lo", func() error { _, err := ns.RangeFrom(bigKey, 0); return err }},
		{"RangeFrom max", func() error { _, err := ns.RangeFrom(nil, -1); return err }},
		{"Atomic key", func() error {
			_, err := ns.Atomic(steps(1, Step[[]byte, []byte]{Kind: StepLookup, Key: bigKey}))
			return err
		}},
		{"Atomic value", func() error {
			_, err := ns.Atomic(steps(1, Step[[]byte, []byte]{Kind: StepInsert, Key: []byte("k"), Val: bigVal}))
			return err
		}},
		{"Atomic steps", func() error {
			_, err := ns.Atomic(steps(wire.MaxBatchSteps+1, Step[[]byte, []byte]{Kind: StepLookup}))
			return err
		}},
		{"Atomic bytes", func() error {
			_, err := ns.Atomic(steps(wire.MaxBatchBytes2/wire.MaxValLen+1,
				Step[[]byte, []byte]{Kind: StepInsert, Key: []byte("k"), Val: maxVal}))
			return err
		}},
		{"default Range max", func() error { _, err := cl.Range(0, 10, -1); return err }},
		{"default RangeFrom max", func() error { _, err := cl.RangeFrom(0, -1); return err }},
		{"default Atomic steps", func() error {
			_, err := cl.Atomic(make([]Step[int64, int64], wire.MaxBatchSteps+1))
			return err
		}},
	}
	cn := cl.Conn(0)
	for _, c := range cases {
		before := sent(cn)
		if err := c.call(); err == nil {
			t.Fatalf("%s: accepted", c.name)
		} else if errors.Is(err, ErrConnClosed) {
			t.Fatalf("%s: %v, want a client-side refusal", c.name, err)
		}
		if after := sent(cn); after != before {
			t.Fatalf("%s: %d requests sent, want none", c.name, after-before)
		}
		if _, _, err := ns.Get([]byte("k")); err != nil {
			t.Fatalf("%s: the next request failed: %v", c.name, err)
		}
	}
	if _, ok, _ := ns.Get([]byte("k")); ok {
		t.Fatal("a refused write reached the map")
	}
}

// script drives one op sequence through m, its int64 keys and values
// encoded by enc, and logs every result decoded by dec.
func script[K any](m *Map[K, K], enc func(int64) K, dec func(K) int64) []string {
	var log []string
	add := func(a ...any) { log = append(log, strings.TrimSpace(fmt.Sprintln(a...))) }
	get := func(k int64) {
		v, ok, err := m.Get(enc(k))
		if ok {
			add("get", k, dec(v), err)
		} else {
			add("get", k, "absent", err)
		}
	}
	scan := func(pairs []Pair[K, K], err error) {
		s := fmt.Sprint("range ", err, ":")
		for _, p := range pairs {
			s += fmt.Sprintf(" %d=%d", dec(p.Key), dec(p.Val))
		}
		log = append(log, s)
	}
	for _, k := range []int64{1, 3, 5} {
		add(m.Insert(enc(k), enc(10*k)))
	}
	add(m.Insert(enc(1), enc(11)))
	add(m.Put(enc(2), enc(20)))
	add(m.Put(enc(2), enc(21)))
	add(m.Remove(enc(3)))
	add(m.Remove(enc(3)))
	get(1)
	get(2)
	get(3)
	scan(m.Range(enc(0), enc(4), 0))
	scan(m.Range(enc(0), enc(100), 2))
	scan(m.RangeFrom(enc(2), 0))
	results, err := m.Atomic([]Step[K, K]{
		{Kind: StepInsert, Key: enc(7), Val: enc(70)},
		{Kind: StepRemove, Key: enc(1)},
		{Kind: StepLookup, Key: enc(2)},
		{Kind: StepLookup, Key: enc(1)},
		{Kind: StepLookup, Key: enc(7)},
	})
	add("atomic", len(results), err)
	for i, r := range results {
		switch {
		case i < 2:
			add("step", r.Ok)
		case r.Ok:
			add("lookup", dec(r.Val))
		default:
			add("lookup absent")
		}
	}
	scan(m.RangeFrom(enc(0), 0))
	add("sync", errors.Is(m.Sync(), ErrNotDurable), "snapshot", errors.Is(m.Snapshot(), ErrNotDurable))
	return log
}

// One script runs on the default map and on a namespace with be64 keys:
// the two codecs must agree op by op, and with the ordered-map model.
func TestScriptAgreesAcrossFamilies(t *testing.T) {
	cl := servedClient(t)
	ns, err := cl.CreateNamespace("script", NamespaceOptions{})
	if err != nil {
		t.Fatalf("CreateNamespace: %v", err)
	}
	want := []string{
		"true <nil>", "true <nil>", "true <nil>",
		"false <nil>",
		"false <nil>", "true <nil>",
		"true <nil>", "false <nil>",
		"get 1 10 <nil>", "get 2 21 <nil>", "get 3 absent <nil>",
		"range <nil>: 1=10 2=21",
		"range <nil>: 1=10 2=21",
		"range <nil>: 2=21 5=50",
		"atomic 5 <nil>", "step true", "step true", "lookup 21", "lookup absent", "lookup 70",
		"range <nil>: 2=21 5=50 7=70",
		"sync true snapshot true",
	}
	id := func(k int64) int64 { return k }
	unbkey := func(b []byte) int64 { return int64(binary.BigEndian.Uint64(b)) }
	for _, run := range []struct {
		name string
		log  []string
	}{
		{"default map", script(cl.Map, id, id)},
		{"namespace", script(ns, bkey, unbkey)},
	} {
		if !slices.Equal(run.log, want) {
			t.Errorf("%s:\n got %q\nwant %q", run.name, run.log, want)
		}
	}
}
