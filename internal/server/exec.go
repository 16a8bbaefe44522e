package server

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// The executor. Every data request addresses a namespace — the v1 ops
// namespace 0, the v2 ops the id in their body — and a run is a maximal
// stretch of coalescable requests to one namespace, executed against
// that namespace's backend under its run lock, so a concurrent NsDrop
// waits the run out instead of closing the backend under it.

// execute runs one drain cycle's requests in order and encodes every
// response into the write buffer.
func (c *conn) execute(batch []wire.Request) {
	for i := 0; i < len(batch); {
		if batch[i].Op.Kind() == wire.KindNone {
			c.execConnOp(&batch[i])
			i++
			if c.follow != nil {
				// The connection carries the stream from here on: the
				// requests after the Follow are not answered.
				c.batch = batch[:i]
				return
			}
		} else {
			i = c.execRun(batch, i)
		}
	}
}

// resolveNS maps a request to its live namespace, admitting the
// connection to the namespace's connection quota. A nil namespace comes
// with the status and message to answer with.
func (c *conn) resolveNS(req *wire.Request) (*namespace, wire.Status, string) {
	var ns *namespace
	switch {
	case req.NS != 0 && c.srv.reg == nil:
		return nil, wire.StatusNsNotFound, "server has no namespace registry"
	case req.NS != 0:
		ns = c.srv.reg.lookup(req.NS)
	case req.Op.IsV2Data():
		return nil, wire.StatusErr, "namespace 0 is the default int64 map: use the v1 ops"
	default:
		ns = c.srv.def
	}
	if ns == nil {
		// The id may have been dropped since this connection used it.
		for old := range c.attached {
			if old.backend() == nil {
				delete(c.attached, old)
			}
		}
		return nil, wire.StatusNsNotFound, fmt.Sprintf("namespace %d not found", req.NS)
	}
	if ns.maxConns == 0 {
		return ns, wire.StatusOK, ""
	}
	if _, ok := c.attached[ns]; !ok {
		if !ns.attach(c) {
			if m := c.srv.met; m != nil {
				m.busyNS.Inc()
			}
			return nil, wire.StatusBusy,
				fmt.Sprintf("namespace %q connection limit %d reached", ns.name, ns.maxConns)
		}
		if c.attached == nil {
			c.attached = make(map[*namespace]struct{}, 4)
		}
		c.attached[ns] = struct{}{}
	}
	return ns, wire.StatusOK, ""
}

// failRun answers every request in a run with one status.
func (c *conn) failRun(group []wire.Request, status wire.Status, msg string) {
	for idx := range group {
		req := &group[idx]
		c.encodeResponse(&wire.Response{ID: req.ID, Op: req.Op, Status: status, Msg: msg})
	}
}

// execRun executes the run starting at batch[i] and returns the index
// past it. A coalescable request opens a run that extends to the end of
// the batch (at most maxBatch requests) or the first request that is
// not coalescable or addresses another namespace or frame family,
// whichever comes first; any other request is a run of one.
func (c *conn) execRun(batch []wire.Request, i int) int {
	req := &batch[i]
	ns, status, msg := c.resolveNS(req)
	if ns == nil {
		c.failRun(batch[i:i+1], status, msg)
		return i + 1
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	be := ns.be
	if be == nil {
		delete(c.attached, ns)
		c.failRun(batch[i:i+1], wire.StatusNsNotFound, fmt.Sprintf("namespace %q dropped", ns.name))
		return i + 1
	}
	if !req.Op.Kind().Coalesces() {
		c.markRun(i, i+1, pathStandalone, ns, 0)
		c.execStandalone(be, req)
		return i + 1
	}

	// joins: coalescable, and addressed to this run's namespace through
	// the same frame family (a v2 op naming namespace 0 is not its
	// traffic — it is refused when its own turn comes).
	v2 := req.Op.IsV2Data()
	joins := func(r *wire.Request) bool {
		return r.NS == req.NS && r.Op.IsV2Data() == v2 && r.Op.Kind().Coalesces()
	}
	j := i + 1
	for j < len(batch) && joins(&batch[j]) {
		j++
	}
	group := batch[i:j]
	if allGets(group) {
		c.markRun(i, j, pathReads, ns, 0)
		// Each Get goes through the backend's direct read path and
		// linearizes on its own between its invocation — the request had
		// already been read — and its response, so skipping the shared
		// commit point preserves every request's contract.
		for idx := range group {
			answer(&c.one, &group[idx])
			be.Get(&group[idx], &c.one)
			c.encodeResponse(&c.one)
		}
		return j
	}
	// One transaction for the whole run. Results are buffered per attempt
	// and only encoded after the commit, so an aborted attempt leaks
	// nothing.
	resps := c.resps[:len(group)]
	retries, err := be.Atomic(group, resps)
	c.markRun(i, j, pathAtomic, ns, retries)
	if err != nil {
		status, msg := statusFor(err)
		c.failRun(group, status, msg)
		return j
	}
	for idx := range resps {
		c.encodeResponse(&resps[idx])
	}
	return j
}

// allGets reports whether every request in the run is a point read.
func allGets(group []wire.Request) bool {
	for i := range group {
		if group[i].Op.Kind() != wire.KindGet {
			return false
		}
	}
	return true
}

// execStandalone executes a namespace's non-coalescable request (Range,
// Sync, Snapshot, Watermark, Promote) under the run lock.
func (c *conn) execStandalone(be Backend, req *wire.Request) {
	resp := &c.one
	answer(resp, req)
	var err error
	switch req.Op.Kind() {
	case wire.KindRange:
		be.Range(req, resp, &c.scratch)
	case wire.KindSync:
		err = be.Sync()
	case wire.KindSnapshot:
		err = be.Snapshot()
	case wire.KindWatermark:
		if w, ok := be.(Watermarker); ok {
			resp.Val = int64(w.Watermark())
		} else {
			err = errors.New("backend has no watermark")
		}
	case wire.KindPromote:
		if p, ok := be.(Promoter); ok {
			err = p.Promote()
		} else {
			err = errors.New("backend is not promotable")
		}
	}
	if err != nil {
		resp.Status, resp.Msg = statusFor(err)
	}
	c.encodeResponse(resp)
}

// execConnOp executes a request that addresses the server rather than a
// map: Ping, Stats, Follow, and the namespace admin ops.
func (c *conn) execConnOp(req *wire.Request) {
	resp := wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK}
	reg := c.srv.reg
	var err error
	switch req.Op {
	case wire.OpStats:
		if r := c.srv.cfg.Obs; r != nil {
			resp.BVal = r.Render()
		} else {
			err = errors.New("server has no metrics registry")
		}
	case wire.OpNsList:
		resp.Namespaces = []wire.NsInfo{c.srv.def.info()}
		if reg != nil {
			resp.Namespaces = append(resp.Namespaces, reg.List()...)
		}
	case wire.OpNsCreate, wire.OpNsDrop:
		if reg == nil {
			err = errors.New("server has no namespace registry")
		} else if req.Op == wire.OpNsDrop {
			err = reg.Drop(req.Name)
		} else if ns, e := reg.Create(req.Name, req.Durable, req.Fsync); e != nil {
			err = e
		} else {
			resp.NsID = ns.id
		}
	case wire.OpFollow:
		if st, ok := c.srv.def.backend().(Streamer); ok {
			c.follow, c.followAt = st, [2]uint64{uint64(req.Key), uint64(req.Val)}
		} else {
			err = errors.New("server does not stream its log")
		}
	case wire.OpPing:
		// empty response
	}
	if err != nil {
		resp.Status, resp.Msg = statusFor(err)
	}
	c.encodeResponse(&resp)
}
