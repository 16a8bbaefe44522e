package client

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// BKV is a byte-string key/value pair returned by Namespace.Range.
type BKV = wire.BKV

// BStep re-exports the wire v2 batch step for Namespace.Atomic.
type BStep = wire.BStep

// BStepResult re-exports the wire v2 batch step result.
type BStepResult = wire.BStepResult

// NsInfo describes one namespace, as reported by Namespaces.
type NsInfo = wire.NsInfo

// Fsync policy selectors for CreateNamespace.
const (
	NsFsyncDefault  = wire.NsFsyncDefault
	NsFsyncNone     = wire.NsFsyncNone
	NsFsyncInterval = wire.NsFsyncInterval
	NsFsyncAlways   = wire.NsFsyncAlways
)

// Namespace-typed sentinels, errors.Is-matchable across the wire like
// ErrNotDurable and ErrCorrupt.
var (
	// ErrNamespaceNotFound reports an operation addressed to a namespace
	// the server does not know (or one dropped mid-flight).
	ErrNamespaceNotFound = errors.New("client: namespace not found")
	// ErrNamespaceExists reports CreateNamespace on a taken name.
	ErrNamespaceExists = errors.New("client: namespace already exists")
)

// NamespaceOptions configures CreateNamespace.
type NamespaceOptions struct {
	// Durable gives the namespace its own WAL + snapshot directory under
	// the server's namespace root; false keeps it in memory.
	Durable bool
	// Fsync selects the durability policy (NsFsync*); NsFsyncDefault
	// uses the server's default.
	Fsync uint8
}

// CreateNamespace makes a named byte-string map on the server and
// returns its handle. Fails with ErrNamespaceExists if the name is
// taken.
func (c *Client) CreateNamespace(name string, opts NamespaceOptions) (*Namespace, error) {
	resp, err := c.pick().Do(&wire.Request{
		Op: wire.OpNsCreate, Name: name, Durable: opts.Durable, Fsync: opts.Fsync,
	})
	if err != nil {
		return nil, err
	}
	return &Namespace{c: c, id: resp.NsID, name: name}, nil
}

// DropNamespace deletes a named map — its data, and for a durable
// namespace its directory. Fails with ErrNamespaceNotFound if absent.
func (c *Client) DropNamespace(name string) error {
	_, err := c.pick().Do(&wire.Request{Op: wire.OpNsDrop, Name: name})
	return err
}

// Namespaces lists the server's namespaces, the default map (id 0)
// first.
func (c *Client) Namespaces() ([]NsInfo, error) {
	resp, err := c.pick().Do(&wire.Request{Op: wire.OpNsList})
	if err != nil {
		return nil, err
	}
	return resp.Namespaces, nil
}

// Namespace resolves an existing namespace by name. Namespace ids are
// assigned per server-process lifetime, so handles must be re-resolved
// after a server restart. Fails with ErrNamespaceNotFound if absent.
func (c *Client) Namespace(name string) (*Namespace, error) {
	infos, err := c.Namespaces()
	if err != nil {
		return nil, err
	}
	for _, info := range infos {
		if info.Name == name && info.ID != 0 {
			return &Namespace{c: c, id: info.ID, name: name}, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrNamespaceNotFound, name)
}

// Namespace is a handle on one named byte-string map. Its methods
// mirror the Client's int64 surface over []byte keys and values and
// round-robin the same connection pool; for pipelining, issue
// Conn.Start with the v2 ops and this handle's ID.
//
// Keys are bounded by wire.MaxKeyLen, values by wire.MaxValLen; every
// method rejects oversized arguments client-side, because the server
// answers an oversized frame by tearing down the connection (and every
// pipelined call on it).
type Namespace struct {
	c    *Client
	id   uint32
	name string
}

// ID is the namespace's wire id for hand-rolled pipelined requests.
func (n *Namespace) ID() uint32 { return n.id }

// Name is the namespace's name.
func (n *Namespace) Name() string { return n.name }

func checkKey(k []byte) error {
	if len(k) > wire.MaxKeyLen {
		return fmt.Errorf("client: key of %d bytes exceeds wire.MaxKeyLen (%d)", len(k), wire.MaxKeyLen)
	}
	return nil
}

func checkVal(v []byte) error {
	if len(v) > wire.MaxValLen {
		return fmt.Errorf("client: value of %d bytes exceeds wire.MaxValLen (%d)", len(v), wire.MaxValLen)
	}
	return nil
}

// Get returns the value stored under k. The returned slice is owned by
// the caller.
func (n *Namespace) Get(k []byte) (v []byte, ok bool, err error) {
	if err := checkKey(k); err != nil {
		return nil, false, err
	}
	resp, err := n.c.pick().Do(&wire.Request{Op: wire.OpGet2, NS: n.id, BKey: k})
	return resp.BVal, resp.Ok, err
}

// Insert adds (k, v) if k is absent and reports whether it did.
func (n *Namespace) Insert(k, v []byte) (bool, error) {
	if err := checkKey(k); err != nil {
		return false, err
	}
	if err := checkVal(v); err != nil {
		return false, err
	}
	resp, err := n.c.pick().Do(&wire.Request{Op: wire.OpInsert2, NS: n.id, BKey: k, BVal: v})
	return resp.Ok, err
}

// Put sets k to v unconditionally, reporting whether a previous value
// was replaced.
func (n *Namespace) Put(k, v []byte) (bool, error) {
	if err := checkKey(k); err != nil {
		return false, err
	}
	if err := checkVal(v); err != nil {
		return false, err
	}
	resp, err := n.c.pick().Do(&wire.Request{Op: wire.OpPut2, NS: n.id, BKey: k, BVal: v})
	return resp.Ok, err
}

// Remove deletes k and reports whether it was present.
func (n *Namespace) Remove(k []byte) (bool, error) {
	if err := checkKey(k); err != nil {
		return false, err
	}
	resp, err := n.c.pick().Do(&wire.Request{Op: wire.OpDel2, NS: n.id, BKey: k})
	return resp.Ok, err
}

// Range returns every pair with lo <= key <= hi in lexicographic order;
// max > 0 truncates server-side. Responses are additionally capped at
// wire.MaxRangeBytes2 of encoded pairs; callers wanting more paginate,
// resuming from their last key + "\x00".
func (n *Namespace) Range(lo, hi []byte, max int) ([]BKV, error) {
	if err := checkKey(lo); err != nil {
		return nil, err
	}
	if err := checkKey(hi); err != nil {
		return nil, err
	}
	resp, err := n.c.pick().Do(&wire.Request{
		Op: wire.OpRange2, NS: n.id, BKey: lo, BVal: hi, Max: uint32(max),
	})
	return resp.BPairs, err
}

// RangeFrom returns pairs with key >= lo, with no upper bound, under
// the same max and byte caps as Range.
func (n *Namespace) RangeFrom(lo []byte, max int) ([]BKV, error) {
	if err := checkKey(lo); err != nil {
		return nil, err
	}
	resp, err := n.c.pick().Do(&wire.Request{
		Op: wire.OpRange2, NS: n.id, BKey: lo, Max: uint32(max), NoHi: true,
	})
	return resp.BPairs, err
}

// Atomic applies steps as one transaction on this namespace. All steps
// take effect at a single commit point, or none do.
func (n *Namespace) Atomic(steps []BStep) ([]BStepResult, error) {
	if len(steps) > wire.MaxBatchSteps {
		return nil, fmt.Errorf("client: batch of %d steps exceeds wire.MaxBatchSteps (%d)",
			len(steps), wire.MaxBatchSteps)
	}
	if b := wire.BatchBytes2(steps); b > wire.MaxBatchBytes2 {
		return nil, fmt.Errorf("client: batch of %d encoded bytes exceeds wire.MaxBatchBytes2 (%d)",
			b, wire.MaxBatchBytes2)
	}
	for i := range steps {
		if err := checkKey(steps[i].Key); err != nil {
			return nil, err
		}
		if steps[i].Kind == wire.StepInsert {
			if err := checkVal(steps[i].Val); err != nil {
				return nil, err
			}
		}
	}
	resp, err := n.c.pick().Do(&wire.Request{Op: wire.OpBatch2, NS: n.id, BSteps: steps})
	return resp.BSteps, err
}

// Sync forces this namespace's WAL to durable storage.
func (n *Namespace) Sync() error {
	_, err := n.c.pick().Do(&wire.Request{Op: wire.OpSync2, NS: n.id})
	return err
}

// Snapshot makes the server write a durable snapshot of this namespace
// now.
func (n *Namespace) Snapshot() error {
	_, err := n.c.pick().Do(&wire.Request{Op: wire.OpSnapshot2, NS: n.id})
	return err
}
