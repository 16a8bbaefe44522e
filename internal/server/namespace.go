package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/skiphash"
)

// Namespace-admin errors, surfaced over the wire as StatusNsNotFound /
// StatusNsExists and matched by the client's typed sentinels.
var (
	ErrNsNotFound = errors.New("server: namespace not found")
	ErrNsExists   = errors.New("server: namespace already exists")
)

// RegistryConfig tunes a namespace registry.
type RegistryConfig struct {
	// Root is the directory under which runtime-created durable
	// namespaces live, one ns-<name> subdirectory each; NewRegistry
	// reopens every namespace already present there. Empty refuses
	// durable NsCreate (and performs no discovery).
	Root string
	// Map is the base map configuration for every namespace backend
	// (Durability is set per namespace).
	Map skiphash.Config
	// Durability is the template for durable namespaces: Dir is
	// overridden per namespace and Fsync supplies the NsFsyncDefault
	// policy; the other knobs apply as-is.
	Durability skiphash.Durability
	// MaxConns bounds how many connections may concurrently use one
	// namespace (0 = unlimited). A request from a connection over the
	// quota is answered with StatusBusy — per request, not by tearing
	// the connection down, since the same connection may be serving
	// other namespaces within quota.
	MaxConns int
	// MaxBatch bounds how many pipelined requests one namespace's
	// coalesced transaction may absorb (0 = the server's MaxBatch).
	MaxBatch int
	// Obs, when set, holds each namespace's request-latency histogram
	// (skiphash_server_request_seconds{ns="<name>"}): registered at
	// create, unregistered at drop, so the exposition's series track the
	// namespace lifecycle. Use the same registry as the server's
	// Config.Obs so the default namespace's series sits alongside.
	Obs *obs.Registry
}

// Registry owns a server's named namespaces: creation, lookup by the
// wire's namespace ids, dropping, and shutdown. Namespace 0 is not
// registered here — it is the map the Server was built around, which is
// why it cannot be dropped.
type Registry struct {
	cfg RegistryConfig

	mu     sync.RWMutex
	byID   map[uint32]*namespace
	byName map[string]*namespace
	nextID uint32
}

// namespace is one map being served. Executor runs hold mu.RLock for
// their whole run; Drop takes mu.Lock, so it waits out in-flight runs
// before the backend is closed and the directory deleted.
type namespace struct {
	id       uint32
	name     string
	durable  bool
	dir      string // "" unless the registry owns a directory for it
	maxConns int
	maxBatch int

	// be is nil once the namespace has been dropped, so whatever still
	// points at the namespace no longer keeps its map alive.
	mu sync.RWMutex
	be Backend

	connMu sync.Mutex
	conns  map[*conn]struct{}

	// reqLatency is this namespace's request-latency histogram; nil
	// without an obs registry.
	reqLatency *obs.Histogram
}

// newNamespace builds the serving state for one map, registering its
// request-latency series (skiphash_server_request_seconds{ns=name}) on
// r when set.
func newNamespace(id uint32, name, dir string, be Backend, r *obs.Registry) *namespace {
	ns := &namespace{
		id:      id,
		name:    name,
		durable: be.Durable(),
		dir:     dir,
		be:      be,
		conns:   make(map[*conn]struct{}),
	}
	if r != nil {
		ns.reqLatency = r.Histogram(reqLatencyName, reqLatencyHelp,
			obs.LatencyBounds, 1e-9, obs.Label{Key: "ns", Value: name})
	}
	return ns
}

func (ns *namespace) info() wire.NsInfo {
	return wire.NsInfo{ID: ns.id, Name: ns.name, Durable: ns.durable}
}

// backend returns the live backend, nil after a drop.
func (ns *namespace) backend() Backend {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return ns.be
}

// close marks the namespace dropped — waiting out in-flight runs — then
// releases its metric series and its map, returning the map's close
// error.
func (ns *namespace) close(r *obs.Registry) error {
	ns.mu.Lock()
	be := ns.be
	ns.be = nil
	ns.mu.Unlock()
	if r != nil {
		r.Unregister(reqLatencyName, obs.Label{Key: "ns", Value: ns.name})
		r.Unregister(nsShardsName, obs.Label{Key: "ns", Value: ns.name})
	}
	return be.Close()
}

// attach admits c to the namespace's connection quota; false answers
// the request with StatusBusy.
func (ns *namespace) attach(c *conn) bool {
	ns.connMu.Lock()
	defer ns.connMu.Unlock()
	if _, ok := ns.conns[c]; ok {
		return true
	}
	if ns.maxConns > 0 && len(ns.conns) >= ns.maxConns {
		return false
	}
	ns.conns[c] = struct{}{}
	return true
}

func (ns *namespace) detach(c *conn) {
	ns.connMu.Lock()
	delete(ns.conns, c)
	ns.connMu.Unlock()
}

// fsyncMetaFile records a durable namespace's fsync-policy selector (the
// wire.NsFsync* byte) so a reopen restores the policy it was created
// with rather than the registry default of the day.
const fsyncMetaFile = "nsfsync"

// NewRegistry creates a registry and, when cfg.Root is set, reopens
// every durable namespace already on disk (ns-<name> subdirectories, in
// name order — namespace ids are assigned per process lifetime and are
// not stable across restarts; clients resolve names via NsList or
// NsCreate).
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	r := &Registry{
		cfg:    cfg,
		byID:   make(map[uint32]*namespace),
		byName: make(map[string]*namespace),
		nextID: 1,
	}
	if cfg.Root == "" {
		return r, nil
	}
	if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
		return nil, err
	}
	dirs, err := filepath.Glob(filepath.Join(cfg.Root, "ns-*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		name := strings.TrimPrefix(filepath.Base(dir), "ns-")
		if err := checkNsName(name); err != nil {
			r.CloseAll()
			return nil, fmt.Errorf("server: namespace dir %s: %w", dir, err)
		}
		fsync := wire.NsFsyncDefault
		if raw, err := os.ReadFile(filepath.Join(dir, fsyncMetaFile)); err == nil {
			if v, err := strconv.Atoi(strings.TrimSpace(string(raw))); err == nil && v <= int(wire.NsFsyncAlways) {
				fsync = uint8(v)
			}
		}
		if _, err := r.CreateAt(name, dir, fsync); err != nil {
			r.CloseAll()
			return nil, fmt.Errorf("server: reopen namespace %q: %w", name, err)
		}
	}
	return r, nil
}

// checkNsName enforces the server's namespace-name policy. The wire
// format permits any bytes up to MaxNsName; the server restricts names
// to filesystem-safe [A-Za-z0-9._-] (so a name can be a directory name)
// and reserves "default" for namespace 0.
func checkNsName(name string) error {
	if name == "" || len(name) > wire.MaxNsName {
		return fmt.Errorf("namespace name must be 1..%d bytes", wire.MaxNsName)
	}
	if name == "default" {
		return errors.New(`namespace name "default" is reserved for the v1 map`)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("namespace name %q: byte %d is not in [A-Za-z0-9._-]", name, i)
		}
	}
	if name[0] == '.' {
		return fmt.Errorf("namespace name %q may not start with '.'", name)
	}
	return nil
}

// fsyncPolicy maps a wire fsync selector onto the registry's durability
// template.
func (r *Registry) fsyncPolicy(sel uint8) (skiphash.FsyncPolicy, error) {
	switch sel {
	case wire.NsFsyncDefault:
		return r.cfg.Durability.Fsync, nil
	case wire.NsFsyncNone:
		return skiphash.FsyncNone, nil
	case wire.NsFsyncInterval:
		return skiphash.FsyncInterval, nil
	case wire.NsFsyncAlways:
		return skiphash.FsyncAlways, nil
	default:
		return 0, fmt.Errorf("server: unknown fsync policy %d", sel)
	}
}

// Create makes a new namespace: in-memory, or durable under
// Root/ns-<name>. It returns ErrNsExists for a taken name. The create
// holds the registry lock across a durable namespace's recovery, so
// lookups (and with them all v2 traffic) stall for its duration —
// acceptable for an admin operation.
func (r *Registry) Create(name string, durable bool, fsync uint8) (*namespace, error) {
	dir := ""
	if durable {
		if r.cfg.Root == "" {
			return nil, errors.New("server: registry has no root directory; durable namespaces unavailable")
		}
		if err := checkNsName(name); err != nil {
			return nil, err
		}
		dir = filepath.Join(r.cfg.Root, "ns-"+name)
	}
	return r.create(name, dir, fsync)
}

// CreateAt makes (or reopens) a durable namespace at an explicit
// directory — the daemon's -ns flag path. If the name already exists
// with the same directory, the existing namespace is returned.
func (r *Registry) CreateAt(name, dir string, fsync uint8) (*namespace, error) {
	r.mu.RLock()
	existing := r.byName[name]
	r.mu.RUnlock()
	if existing != nil {
		if existing.dir == dir {
			return existing, nil
		}
		return nil, fmt.Errorf("%w: %q is open at %s", ErrNsExists, name, existing.dir)
	}
	return r.create(name, dir, fsync)
}

func (r *Registry) create(name, dir string, fsync uint8) (*namespace, error) {
	if err := checkNsName(name); err != nil {
		return nil, err
	}
	pol, err := r.fsyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrNsExists, name)
	}
	mapCfg := r.cfg.Map
	mapCfg.Durability = nil
	if dir != "" {
		dur := r.cfg.Durability
		dur.Dir = dir
		dur.Fsync = pol
		mapCfg.Durability = &dur
	}
	s, err := skiphash.Open[string, string](skiphash.StringLess, skiphash.HashString, mapCfg, skiphash.StringCodec(), skiphash.StringCodec())
	if err != nil {
		return nil, err
	}
	if dir != "" {
		// Best effort: the selector is advisory metadata for reopen.
		os.WriteFile(filepath.Join(dir, fsyncMetaFile), []byte(strconv.Itoa(int(fsync))+"\n"), 0o644)
	}
	ns := newNamespace(r.nextID, name, dir, newBackend[string, string](s, bytesCodec{}), r.cfg.Obs)
	ns.maxConns, ns.maxBatch = r.cfg.MaxConns, r.cfg.MaxBatch
	if r.cfg.Obs != nil {
		r.cfg.Obs.GaugeFunc(nsShardsName, nsShardsHelp,
			func() float64 { return float64(s.Shards()) },
			obs.Label{Key: "ns", Value: name})
	}
	r.nextID++
	r.byID[ns.id] = ns
	r.byName[name] = ns
	return ns, nil
}

// Drop unregisters a namespace, waits out its in-flight executor runs,
// closes its backend, and — for a durable namespace — deletes its
// directory. Requests racing the drop answer StatusNsNotFound.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	ns, ok := r.byName[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNsNotFound, name)
	}
	delete(r.byName, name)
	delete(r.byID, ns.id)
	r.mu.Unlock()
	// A failed final flush loses nothing a drop was not about to delete.
	_ = ns.close(r.cfg.Obs)
	if ns.dir != "" {
		return os.RemoveAll(ns.dir)
	}
	return nil
}

// lookup resolves a wire namespace id; nil when unknown.
func (r *Registry) lookup(id uint32) *namespace {
	r.mu.RLock()
	ns := r.byID[id]
	r.mu.RUnlock()
	return ns
}

// LookupName resolves a namespace name to its id for this process
// lifetime.
func (r *Registry) LookupName(name string) (uint32, bool) {
	r.mu.RLock()
	ns, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return ns.id, true
}

// List reports the named namespaces in id order (namespace 0 is the
// Server's and is prepended by the NsList handler).
func (r *Registry) List() []wire.NsInfo {
	r.mu.RLock()
	out := make([]wire.NsInfo, 0, len(r.byID))
	for _, ns := range r.byID {
		out = append(out, ns.info())
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CloseAll closes every namespace backend (durable ones flush and
// fsync), leaving directories intact, and returns the first failure —
// a namespace whose acknowledged writes may not all be on disk.
// Server.Shutdown calls it after draining.
func (r *Registry) CloseAll() error {
	r.mu.Lock()
	nss := make([]*namespace, 0, len(r.byID))
	for _, ns := range r.byID {
		nss = append(nss, ns)
	}
	r.byID = make(map[uint32]*namespace)
	r.byName = make(map[string]*namespace)
	r.mu.Unlock()
	var first error
	for _, ns := range nss {
		if err := ns.close(r.cfg.Obs); err != nil && first == nil {
			first = fmt.Errorf("server: close namespace %q: %w", ns.name, err)
		}
	}
	return first
}
