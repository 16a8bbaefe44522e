// Package repro is a from-scratch Go reproduction of "Skip Hash: A Fast
// Ordered Map Via Software Transactional Memory" (Rodriguez, Aksenov,
// Spear). The public API lives in repro/skiphash: one map type, the
// paper's structure exactly (New) — one hash index and one skip list
// behind a single abstraction — with every removal unstitching its node
// at commit or handing it to an in-flight range query as the paper's
// Figure 4 does, and the durability subsystem (Config.Durability plus
// Open): a write-ahead log of logical operations
// ordered by the STM's commit stamps, clock-consistent background
// snapshots, and crash recovery with torn-tail tolerance and checksum
// rejection. The experiment drivers in cmd/skipbench regenerate every
// figure and table of the paper's evaluation plus the churn
// series, and the durability-overhead table; cmd/skipstress
// -crash audits kill/recover cycles against a shadow model. See
// README.md for the package map and quickstart.
package repro
