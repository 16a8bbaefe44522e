// Package repro is a from-scratch Go reproduction of "Skip Hash: A Fast
// Ordered Map Via Software Transactional Memory" (Rodriguez, Aksenov,
// Spear). The public API lives in repro/skiphash: one map type that is
// the paper's structure at one shard (New) and partitions itself across
// a fixed number of independent skip-hash shards on request
// (NewSharded), the handle-lifecycle subsystem (Handle.Close, orphan
// queues drained inline by the operations that fill them) that keeps the
// paper's deferred removal buffers from stranding stitched nodes on
// long-running servers, and the durability subsystem (Config.Durability
// plus the Open constructors): a write-ahead log of logical operations
// ordered by the STM's commit stamps, clock-consistent background
// snapshots, and crash recovery with torn-tail tolerance and checksum
// rejection. The experiment drivers in cmd/skipbench regenerate every
// figure and table of the paper's evaluation plus the shard sweep, the
// handle-churn series, and the durability-overhead table; cmd/skipstress
// -crash audits kill/recover cycles against a shadow model. See
// README.md for the package map and quickstart.
package repro
