package server

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/skiphash"
	"repro/skiphash/client"
)

// Executor conformance: one scenario table, run once through the v1 ops
// against namespace 0 and once through the v2 ops against a named
// namespace. The executor is driven directly — one drain cycle per
// run call, responses decoded from the connection's write buffer — so
// run boundaries are deterministic and visible in
// skiphash_server_run_size.

// family builds one frame family's requests from int64 keys and values
// and reads its responses back into them.
type family struct {
	name string
	v2   bool
	ns   *namespace
}

var v1Ops = map[wire.Kind]wire.Op{
	wire.KindGet: wire.OpGet, wire.KindInsert: wire.OpInsert, wire.KindPut: wire.OpPut,
	wire.KindDel: wire.OpDel, wire.KindRange: wire.OpRange, wire.KindSync: wire.OpSync,
	wire.KindSnapshot: wire.OpSnapshot,
}

var v2Ops = map[wire.Kind]wire.Op{
	wire.KindGet: wire.OpGet2, wire.KindInsert: wire.OpInsert2, wire.KindPut: wire.OpPut2,
	wire.KindDel: wire.OpDel2, wire.KindRange: wire.OpRange2, wire.KindSync: wire.OpSync2,
	wire.KindSnapshot: wire.OpSnapshot2,
}

// bnum renders n as a fixed-width byte string, so byte order is numeric
// order for non-negative n.
func bnum(n int64) []byte { return []byte(fmt.Sprintf("%08d", n)) }

func unbnum(t *testing.T, b []byte) int64 {
	t.Helper()
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		t.Fatalf("byte string %q is not a number", b)
	}
	return n
}

// op builds a request of kind with arguments (a, b): key and value for
// a point op, lo and hi for a range.
func (f family) op(kind wire.Kind, a, b int64) wire.Request {
	if !f.v2 {
		return wire.Request{Op: v1Ops[kind], Key: a, Val: b}
	}
	return wire.Request{Op: v2Ops[kind], NS: f.ns.id, BKey: bnum(a), BVal: bnum(b)}
}

func (f family) get(k int64) wire.Request       { return f.op(wire.KindGet, k, 0) }
func (f family) insert(k, v int64) wire.Request { return f.op(wire.KindInsert, k, v) }

func (f family) batch(steps ...wire.Step) wire.Request {
	if !f.v2 {
		return wire.Request{Op: wire.OpBatch, Steps: steps}
	}
	req := wire.Request{Op: wire.OpBatch2, NS: f.ns.id}
	for _, s := range steps {
		req.BSteps = append(req.BSteps, wire.BStep{Kind: s.Kind, Key: bnum(s.Key), Val: bnum(s.Val)})
	}
	return req
}

// val reads a Get response's value; keys a range response's keys.
func (f family) val(t *testing.T, resp *wire.Response) int64 {
	if !f.v2 {
		return resp.Val
	}
	return unbnum(t, resp.BVal)
}

func (f family) keys(t *testing.T, resp *wire.Response) []int64 {
	var out []int64
	for _, p := range resp.Pairs {
		out = append(out, p.Key)
	}
	for _, p := range resp.BPairs {
		out = append(out, unbnum(t, p.Key))
	}
	return out
}

// harness is an executor-side conn over an in-memory write buffer, on a
// server with namespace 0 and one named namespace, both over maps built
// with the zero Config.
type harness struct {
	t    *testing.T
	c    *conn
	out  bytes.Buffer
	runs *obs.Histogram
	// seenRuns, seenReqs are the run-size histogram's totals at the last
	// runsSince call.
	seenRuns, seenReqs uint64
	families           []family
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	t.Cleanup(m.Close)
	or := obs.NewRegistry()
	reg, err := NewRegistry(RegistryConfig{Obs: or})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(func() { reg.CloseAll() })
	named, err := reg.Create("named", false, wire.NsFsyncDefault)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	srv := NewWithRegistry(NewShardedBackend(m), reg, Config{Obs: or})
	h := &harness{t: t, c: srv.newConn(nil), runs: srv.met.runSize}
	h.c.bw = bufio.NewWriter(&h.out)
	h.families = []family{{"v1", false, srv.def}, {"v2", true, named}}
	return h
}

// run executes reqs as one drain cycle and returns their responses,
// checked to be in request order.
func (h *harness) run(reqs ...wire.Request) []wire.Response {
	h.t.Helper()
	c := h.c
	c.batch, c.arrival = c.batch[:0], time.Now()
	for i := range reqs {
		reqs[i].ID = uint64(i + 1)
		c.push(reqs[i])
	}
	c.execute(c.batch)
	if err := c.bw.Flush(); err != nil {
		h.t.Fatalf("flush: %v", err)
	}
	c.observe(c.batch)
	fr := wire.NewFrameReader(&h.out, wire.MaxResponsePayload)
	resps := make([]wire.Response, len(reqs))
	for i := range resps {
		payload, err := fr.Next()
		if err != nil {
			h.t.Fatalf("response %d of %d: %v", i, len(reqs), err)
		}
		if resps[i], err = wire.ParseResponse(payload); err != nil {
			h.t.Fatalf("response %d: %v", i, err)
		}
		if resps[i].ID != reqs[i].ID || resps[i].Op != reqs[i].Op {
			h.t.Fatalf("response %d answers id %d op %v, want id %d op %v",
				i, resps[i].ID, resps[i].Op, reqs[i].ID, reqs[i].Op)
		}
	}
	if h.out.Len() != 0 {
		h.t.Fatalf("%d stray response bytes after %d requests", h.out.Len(), len(reqs))
	}
	return resps
}

// runsSince reports how many coalesced runs executed since the last
// call, and how many requests they absorbed.
func (h *harness) runsSince() (runs, reqs uint64) {
	n, sum := h.runs.Count(), h.runs.Sum()
	runs, reqs = n-h.seenRuns, sum-h.seenReqs
	h.seenRuns, h.seenReqs = n, sum
	return runs, reqs
}

func (h *harness) wantRuns(runs, reqs uint64) {
	h.t.Helper()
	if r, q := h.runsSince(); r != runs || q != reqs {
		h.t.Fatalf("%d runs absorbing %d requests, want %d absorbing %d", r, q, runs, reqs)
	}
}

func wantStatus(t *testing.T, resps []wire.Response, want wire.Status) {
	t.Helper()
	for i := range resps {
		if resps[i].Status != want {
			t.Fatalf("response %d: status %v (%s), want %v", i, resps[i].Status, resps[i].Msg, want)
		}
	}
}

// readOnlyBackend stands in for an unpromoted replica's backend: it
// refuses writes and the durability surface, embedding the interface
// the way the replication decorators do.
type readOnlyBackend struct{ Backend }

func (readOnlyBackend) Atomic([]wire.Request, []wire.Response) error { return ErrReadOnly }
func (readOnlyBackend) Sync() error                                  { return ErrReadOnly }
func (readOnlyBackend) Snapshot() error                              { return ErrReadOnly }

// setRangeBudget shrinks a backend's range frame budget.
func setRangeBudget(be Backend, n int) {
	switch b := be.(type) {
	case *MapBackend[int64, int64]:
		b.rangeBudget = n
	case *MapBackend[string, string]:
		b.rangeBudget = n
	}
}

// stepOks lists a batch response's per-step outcomes, either family.
func stepOks(resp *wire.Response) []bool {
	var oks []bool
	for _, s := range resp.Steps {
		oks = append(oks, s.Ok)
	}
	for _, s := range resp.BSteps {
		oks = append(oks, s.Ok)
	}
	return oks
}

var executorScenarios = []struct {
	name string
	run  func(t *testing.T, h *harness, f family)
}{
	{"CoalescedRunClampedByMaxBatch", func(t *testing.T, h *harness, f family) {
		var reqs []wire.Request
		for k := int64(0); k < 10; k++ {
			reqs = append(reqs, f.insert(k, k*10))
		}
		wantStatus(t, h.run(reqs...), wire.StatusOK)
		h.wantRuns(1, 10) // unclamped: the whole cycle is one transaction

		f.ns.maxBatch = 4
		reqs = reqs[:0]
		for k := int64(0); k < 10; k++ {
			reqs = append(reqs, f.op(wire.KindPut, k, k*100), f.get(k))
		}
		resps := h.run(reqs...)
		wantStatus(t, resps, wire.StatusOK)
		h.wantRuns(5, 20)
		for k := int64(0); k < 10; k++ {
			if put, get := &resps[2*k], &resps[2*k+1]; !put.Ok || !get.Ok || f.val(t, get) != k*100 {
				t.Fatalf("key %d: put replaced=%v, get = %d, %v", k, put.Ok, f.val(t, get), get.Ok)
			}
		}
		// A quota above the server's MaxBatch does not raise it.
		f.ns.maxBatch = 1 << 20
		wantStatus(t, h.run(reqs...), wire.StatusOK)
		h.wantRuns(1, 20)
	}},
	// RunSpansShards, PureGetRunSpansShards and CrossShardBatchCommitsInRun
	// are named for the partition their keys once straddled; each is now
	// a run over several keys, which coalesces exactly as it did then.
	{"RunSpansShards", func(t *testing.T, h *harness, f family) {
		a, a2, b := int64(1), int64(2), int64(3)
		resps := h.run(f.insert(a, 1), f.insert(a2, 2), f.insert(b, 3), f.insert(a, 4))
		wantStatus(t, resps, wire.StatusOK)
		h.wantRuns(1, 4) // several keys, one commit domain: no boundary
		if !resps[0].Ok || !resps[1].Ok || !resps[2].Ok || resps[3].Ok {
			t.Fatalf("responses = %+v", resps)
		}
	}},
	{"PureGetRunSpansShards", func(t *testing.T, h *harness, f family) {
		a, b := int64(1), int64(2)
		wantStatus(t, h.run(f.insert(a, 10)), wire.StatusOK)
		wantStatus(t, h.run(f.insert(b, 20)), wire.StatusOK)
		h.runsSince()
		resps := h.run(f.get(a), f.get(b), f.get(a))
		wantStatus(t, resps, wire.StatusOK)
		h.wantRuns(1, 3)
		if f.val(t, &resps[0]) != 10 || f.val(t, &resps[1]) != 20 || f.val(t, &resps[2]) != 10 {
			t.Fatalf("responses = %+v", resps)
		}
		// A write among the Gets turns the whole stretch into one atomic
		// run.
		resps = h.run(f.get(a), f.get(b), f.get(a), f.insert(b, 21), f.get(b))
		wantStatus(t, resps, wire.StatusOK)
		h.wantRuns(1, 5)
		if f.val(t, &resps[0]) != 10 || f.val(t, &resps[1]) != 20 || resps[3].Ok || f.val(t, &resps[4]) != 20 {
			t.Fatalf("responses = %+v", resps)
		}
	}},
	{"CrossShardBatchCommitsInRun", func(t *testing.T, h *harness, f family) {
		a, b := int64(1), int64(2)
		resps := h.run(
			f.insert(a, 1),
			f.batch(wire.Step{Kind: wire.StepInsert, Key: a, Val: 7}, wire.Step{Kind: wire.StepInsert, Key: b, Val: 7}),
			f.get(a), f.get(b))
		wantStatus(t, resps, wire.StatusOK)
		// The batch commits in one run with its neighbours, and both its
		// keys are visible: a kept its first value, b took the batch's.
		h.wantRuns(1, 4)
		if oks := stepOks(&resps[1]); len(oks) != 2 || oks[0] || !oks[1] {
			t.Fatalf("batch steps = %v, want [false true]", oks)
		}
		if !resps[0].Ok || !resps[2].Ok || f.val(t, &resps[2]) != 1 || !resps[3].Ok || f.val(t, &resps[3]) != 7 {
			t.Fatalf("neighbours of the batch = %+v", resps)
		}
	}},
	{"ReadOnlyBackendFailsWholeRun", func(t *testing.T, h *harness, f family) {
		wantStatus(t, h.run(f.insert(1, 10)), wire.StatusOK)
		f.ns.be = readOnlyBackend{f.ns.be}
		h.runsSince()
		resps := h.run(f.get(1), f.insert(2, 20), f.get(2))
		wantStatus(t, resps, wire.StatusReadOnly) // one run, one verdict
		h.wantRuns(1, 3)
		// Pure reads never enter the transaction and are still served.
		resps = h.run(f.get(1), f.get(2))
		wantStatus(t, resps, wire.StatusOK)
		if !resps[0].Ok || f.val(t, &resps[0]) != 10 || resps[1].Ok {
			t.Fatalf("reads on a read-only backend = %+v", resps)
		}
		wantStatus(t, h.run(f.op(wire.KindSync, 0, 0), f.op(wire.KindSnapshot, 0, 0)), wire.StatusReadOnly)
	}},
	{"RangeTruncation", func(t *testing.T, h *harness, f family) {
		var reqs []wire.Request
		for k := int64(0); k < 20; k++ {
			reqs = append(reqs, f.insert(k, k))
		}
		wantStatus(t, h.run(reqs...), wire.StatusOK)
		rng := func(lo, hi int64, max uint32) []int64 {
			req := f.op(wire.KindRange, lo, hi)
			req.Max = max
			resps := h.run(req)
			wantStatus(t, resps, wire.StatusOK)
			return f.keys(t, &resps[0])
		}
		if got := rng(5, 14, 0); len(got) != 10 || got[0] != 5 || got[9] != 14 {
			t.Fatalf("unbounded range = %v", got)
		}
		if got := rng(5, 14, 3); len(got) != 3 || got[2] != 7 {
			t.Fatalf("range with Max 3 = %v", got)
		}
		// The frame budget (wire.MaxRangePairs pairs of 16 bytes for v1,
		// wire.MaxRangeBytes2 for v2) truncates the same way; shrink it to
		// four pairs' worth to see it.
		pair := 16
		if f.v2 {
			pair = 8 + 8 + 8
		}
		setRangeBudget(f.ns.be, 4*pair+pair/2)
		if got := rng(0, 19, 0); len(got) != 4 || got[3] != 3 {
			t.Fatalf("range over the frame budget = %v", got)
		}
		if got := rng(0, 19, 2); len(got) != 2 {
			t.Fatalf("range with Max under the frame budget = %v", got)
		}
	}},
	{"SyncSnapshotNotDurable", func(t *testing.T, h *harness, f family) {
		wantStatus(t, h.run(f.op(wire.KindSync, 0, 0), f.op(wire.KindSnapshot, 0, 0)), wire.StatusNotDurable)
		h.wantRuns(0, 0) // standalone ops are not coalesced runs
	}},
}

func TestExecutorConformance(t *testing.T) {
	if wire.MaxRangePairs*16 != wire.MaxRangeBytes2 {
		t.Fatalf("v1 and v2 range limits diverged: %d pairs vs %d bytes", wire.MaxRangePairs, wire.MaxRangeBytes2)
	}
	for _, sc := range executorScenarios {
		for fi := 0; fi < 2; fi++ {
			h := newHarness(t)
			f := h.families[fi]
			t.Run(sc.name+"/"+f.name, func(t *testing.T) {
				h.t = t
				sc.run(t, h, f)
			})
		}
	}
}

// TestV2OpOnNamespaceZeroRefusedInPlace: a v2 data op naming namespace 0
// answers StatusErr where it stands in the pipeline — it neither joins
// the v1 run around it nor disturbs the connection.
func TestV2OpOnNamespaceZeroRefusedInPlace(t *testing.T) {
	h := newHarness(t)
	v1 := h.families[0]
	stray := wire.Request{Op: wire.OpPut2, NS: 0, BKey: bnum(2), BVal: bnum(2)}
	resps := h.run(v1.insert(1, 10), v1.insert(2, 20), stray, v1.get(2),
		wire.Request{Op: wire.OpSync2, NS: 0})
	if resps[2].Status != wire.StatusErr || resps[4].Status != wire.StatusErr {
		t.Fatalf("v2 ops on namespace 0: statuses %v, %v, want Err", resps[2].Status, resps[4].Status)
	}
	if resps[0].Status != wire.StatusOK || resps[1].Status != wire.StatusOK ||
		resps[3].Status != wire.StatusOK || resps[3].Val != 20 {
		t.Fatalf("v1 traffic around the refused op = %+v", resps)
	}
	h.wantRuns(2, 3) // {insert, insert} {get}: the refused op is in neither

	// Over a real connection: refused, and the connection lives on.
	_, addr := startNsServer(t, RegistryConfig{}, Config{})
	cn := dialT(t, addr, client.Options{}).Conn(0)
	resp, err := cn.Do(&wire.Request{Op: wire.OpGet2, NS: 0, BKey: []byte("k")})
	if err == nil || resp.Status != wire.StatusErr {
		t.Fatalf("Get2 on namespace 0: status %v, err %v, want StatusErr", resp.Status, err)
	}
	if resp, err := cn.Do(&wire.Request{Op: wire.OpPing}); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("Ping after the refusal: %v, %v", resp.Status, err)
	}
}

// TestDroppedNamespaceReleased: dropping a namespace must release its map
// even while a connection that used it stays open — nothing the
// connection holds may keep the closed backend reachable.
func TestDroppedNamespaceReleased(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{MaxConns: 4})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer reg.CloseAll()
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	defer m.Close()
	c := NewWithRegistry(NewShardedBackend(m), reg, Config{}).newConn(nil)
	c.bw = bufio.NewWriter(&bytes.Buffer{})

	for cycle := 0; cycle < 3; cycle++ {
		ns, err := reg.Create("cycled", false, wire.NsFsyncDefault)
		if err != nil {
			t.Fatalf("cycle %d: Create: %v", cycle, err)
		}
		put := wire.Request{Op: wire.OpInsert2, NS: ns.id, BKey: []byte("k"), BVal: []byte("v")}
		c.execute([]wire.Request{put})
		if len(c.attached) != 1 {
			t.Fatalf("cycle %d: connection attached to %d namespaces, want 1", cycle, len(c.attached))
		}
		if err := reg.Drop("cycled"); err != nil {
			t.Fatalf("cycle %d: Drop: %v", cycle, err)
		}
		c.execute([]wire.Request{put}) // answers StatusNsNotFound
		if len(c.attached) != 0 {
			t.Fatalf("cycle %d: connection still references %d dropped namespaces", cycle, len(c.attached))
		}
		if ns.be != nil {
			t.Fatalf("cycle %d: dropped namespace still holds its backend", cycle)
		}
	}
}
