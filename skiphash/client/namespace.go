package client

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

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
// returns it. Fails with ErrNamespaceExists if the name is taken.
func (c *Client) CreateNamespace(name string, opts NamespaceOptions) (*Map[[]byte, []byte], error) {
	resp, err := c.pick().Do(&wire.Request{
		Op: wire.OpNsCreate, Name: name, Durable: opts.Durable, Fsync: opts.Fsync,
	})
	if err != nil {
		return nil, err
	}
	return c.namespace(resp.NsID, name), nil
}

// namespace is the Map of namespace id, named name.
func (c *Client) namespace(id uint32, name string) *Map[[]byte, []byte] {
	return &Map[[]byte, []byte]{c: c, id: id, name: name, cd: bytesCodec{}}
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
// assigned per server-process lifetime, so a namespace's Map must be
// re-resolved after a server restart. Fails with ErrNamespaceNotFound
// if absent.
func (c *Client) Namespace(name string) (*Map[[]byte, []byte], error) {
	infos, err := c.Namespaces()
	if err != nil {
		return nil, err
	}
	for _, info := range infos {
		if info.Name == name && info.ID != 0 {
			return c.namespace(info.ID, name), nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrNamespaceNotFound, name)
}
