// Package skiphash is the public API of the skip hash: a fast,
// linearizable, concurrent ordered map built on software transactional
// memory, reproducing Rodriguez, Aksenov and Spear, "Skip Hash: A Fast
// Ordered Map Via Software Transactional Memory".
//
// # Construction
//
// There is one map type, Map (with Txn, its view inside Atomic) — the
// paper's structure exactly — and one generic entry point per job: New for
// in-memory maps, Open for durable ones (Open with a nil
// Config.Durability is exactly New):
//
//	m := skiphash.New[int64, string](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
//	d, err := skiphash.Open[int64, string](skiphash.Int64Less, skiphash.Hash64,
//	    skiphash.Config{Durability: &skiphash.Durability{Dir: dir}},
//	    skiphash.Int64Codec(), skiphash.StringCodec())
//
// less supplies the ordering, hash the distribution over buckets;
// Int64Less/Hash64 and StringLess/HashString are the stock pairs for the
// two key types the repository exercises end to end. Sharded and
// NewSharded are older names for Map and New.
//
// # Design
//
// A skip hash composes two transactional structures behind one
// abstraction: a closed-addressing hash map routing each key to the node
// holding it, and a doubly linked skip list keeping the nodes ordered.
// Every elemental operation is a single STM transaction, which makes the
// composition trivially atomic and yields O(1) expected complexity for
// everything except successful insertion and absent-key point queries
// (those pay one O(log n) skip list search).
//
// Range queries use a fast-path/slow-path scheme. The fast path runs the
// whole query as one transaction that does not retry; under contention
// or for very long ranges it falls back to a slow path coordinated by a
// range query coordinator (RQC): the query takes a version number,
// traverses from safe node to safe node in a resumable transaction, and
// logically deleted nodes it still needs are kept stitched until it
// finishes.
//
// Point reads (Lookup, Contains) go further: they first try an
// optimistic fast path that bypasses the STM entirely, walking the hash
// index raw and validating the bucket's ownership record word before
// and after the walk (a seqlock-style sample/revalidate, with no clock
// read and no transaction descriptor). A validated walk is linearizable
// as-is; any interference falls back to the ordinary read-only
// transaction, which remains the source of truth. Searches of the skip
// list (inserts, ordered queries, ranges, iterators) likewise descend
// the tower raw and read in their transaction only the pairs of nodes
// they splice between or start from, falling back to a fully
// transactional descent when a pair has changed.
// Config.DisableReadFastPath disables both bypasses: every read and every
// descent then runs inside the transaction.
//
// # Usage
//
//	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
//	m.Insert(42, 420)
//	v, ok := m.Lookup(42)
//	pairs := m.Range(10, 100, nil)
//
// As in the paper's Figure 2, every operation is a method of the map,
// safe for concurrent use from any number of goroutines with no
// per-goroutine setup: an operation keeps no state between calls (its
// search scratch lives on its own stack, and its counters are striped
// cells it picks afresh).
//
// Because the map is STM-based, multi-key atomicity comes for free:
//
//	_ = m.Atomic(func(op *skiphash.Txn[int64, int64]) error {
//	    op.Remove(1)
//	    op.Insert(2, 20) // observers see both or neither
//	    return nil
//	})
//
// # One structure
//
// The map is not partitioned: its O(1) point operations come from the
// hash index, and its range scalability from the RQC. Every ordered
// operation — an absent-key Ceil, Floor, Succ or Pred, a Range's start,
// a fresh Insert — descends the one skip list once.
//
// # Durability and recovery
//
// Setting Config.Durability and constructing through Open makes the map
// persistent: every committed insert, remove
// and Atomic batch is appended to a CRC-framed write-ahead log tagged
// with its STM commit stamp — the paper's global-version clock gives
// the log a total order for free — and background snapshots, taken in
// chunked consistent reads while writers proceed, bound replay and
// truncate covered segments. Open recovers the newest valid snapshot
// plus the strictly-newer log tail, tolerating a torn final record
// after a crash and rejecting checksum corruption with an error
// matching ErrCorrupt.
//
// The fsync-policy contract (Durability.Fsync): FsyncAlways
// group-commits — when an update returns, its record is fsynced, so a
// crash loses nothing acknowledged; FsyncInterval (the default) fsyncs
// in the background at least every Durability.FsyncEvery, bounding loss
// to that window; FsyncNone never fsyncs while running and is only as
// durable as the OS page cache (power loss can cost everything since
// the last snapshot or Sync). All policies flush and fsync on a clean
// Close; Map.Sync forces durability on demand and Map.Snapshot writes a
// snapshot now. Atomic batches are single log records: recovery sees a
// batch entirely or not at all.
//
// Operations report their in-memory result; they cannot individually
// report a durability failure (by the time the log is involved, the
// transaction has committed). A log I/O error — a full or failing disk
// — is sticky: from that point the engine stops logging, and Map.Sync,
// Map.Snapshot and the Persister's Err all return the error. An update
// that commits while Close is already draining (or after it) cannot be
// logged either; the divergence is counted and reported by Err and the
// Persister's Close, so quiesce writers before Close when every
// acknowledged update must be durable. Map.Close flushes but cannot
// return an error (Close has no error result), so a checked shutdown is
// Sync then Close, then Persister().Err(). Deployments that must bound
// data loss under disk failure should check Sync at checkpoints
// (FsyncAlways callers: Err after critical writes) rather than rely on
// per-operation acknowledgments.
//
// Open refuses, untouched, a directory in the retired per-shard layout
// (a "shards" meta file and shard-NNN engine subdirectories).
//
// # Serving
//
// The map embeds; cmd/skiphashd serves. The daemon exposes a
// (optionally durable) map over TCP or a unix socket speaking a
// CRC-framed binary protocol (internal/wire), with pipelined requests
// coalesced into atomic transactions at the server (internal/server);
// the skiphash/client package is the matching client, whose typed
// errors are these same sentinels — errors.Is(err, ErrNotDurable)
// holds whether the Sync ran in-process or on the far side of a socket.
//
// The wire speaks two op families over one framing. The v1 ops carry
// fixed 8-byte int64 keys and values and address the daemon's default
// map. The v2 ops carry length-prefixed byte-string keys and values
// and a namespace id: one daemon hosts many named byte-string maps,
// created and dropped at runtime or
// pinned at boot (skiphashd -ns / -ns-root), each durable namespace
// with its own WAL directory and fsync policy that survive restarts.
// The encoding is canonical — any frame the parser accepts re-encodes
// byte-identically, fuzz-enforced — and malformed input is always a
// connection-tearing ProtocolError, never a misdecoded message.
// Per-namespace connection and coalescing quotas answer over-quota
// requests with a busy status per request rather than tearing the
// connection; the client surfaces namespace admin failures as
// ErrNamespaceNotFound/ErrNamespaceExists, errors.Is-matchable across
// the wire like every other sentinel.
//
// A durable daemon can additionally replicate: internal/repl streams
// the commit-stamp-ordered WAL to live replicas that apply records
// through the recovery replay rules and serve read-only traffic at an
// advertised watermark (skiphashd -replicate-addr / -follow;
// client.GetAt fans barriered reads out across replicas, and Promote
// turns a replica into a writable successor whose clock is floored
// above everything it applied). Commit stamps are comparable only
// within one primary lineage — see internal/repl for the consistency
// contract.
//
// # Observability
//
// Every layer surfaces counters through cheap Stats() accessors
// (Map.STMStats, Map.MaintenanceStats, persist.Store.Stats,
// repl.Replica.Stats), and the daemon assembles them — plus latency
// histograms for commits, fsyncs and per-namespace requests, and a
// slow-op ring tracer — into one internal/obs registry rendered as
// Prometheus text exposition (skiphashd -metrics, the Stats wire op,
// client.ServerStats). Metrics are strictly additive: the serving and
// read fast paths write only striped atomics, never shared metric
// state. See the README's Observability section for the endpoint and
// series naming.
//
// # Reclamation
//
// A removal reclaims its own node, as Figure 4's after_remove does: the
// removing transaction unstitches the node, or, while a slow-path range
// query older than the node is in flight, appends it to that query's
// deferred list, which the query unstitches when it finishes (observe
// both through Map.MaintenanceStats). No goroutine reclaims in the
// background, so only a durable map, whose engine must flush its WAL,
// has to be closed.
package skiphash
