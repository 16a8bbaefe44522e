// Package repl streams a primary skip hash's write-ahead log to live
// replicas: recovery made remote. The primary taps its WAL at the STM
// publish point (append order = commit order for conflicting
// transactions) and feeds each follower a snapshot-plus-log-tail
// stream over the internal/wire replication channel, snapshot chunks
// and log records alike as op lists in the WAL's own encoding. A
// replica in a full resync folds the chunks and the tail with the fold
// crash recovery runs (persist.Fold) and reloads its map from the
// result; once caught up it applies each record in stream order. It
// serves read-only traffic at an advertised commit-stamp watermark.
//
// # Consistency contract
//
// Commit stamps are comparable only within one primary lineage — one
// clock instance on one primary incarnation and the replicas applying
// its stream. Within a lineage the watermark supports a read barrier:
// a replica whose watermark strictly exceeds X has applied every
// commit with stamp <= X (clients obtain X from the primary's
// Watermark after their writes, see skiphash/client.GetAt). Across
// lineages — after a promotion — the only safe watermark comparison is
// against the promoted node itself.
//
// While a full resync runs the watermark is 0, so every barriered read
// falls through to the primary. At the end of the resync it is set to
// the primary's caught-up stamp, not raised to it: a new epoch is a new
// lineage, and the watermark restarts there even when that stamp is
// lower than the old lineage's.
//
// Known hazard, not handled: right after a restart, a primary's stamps
// can fall below stamps it advertised before the crash. Recovery floors
// the restarted clock above the largest stamp in the log, but Watermark
// and heartbeats advertised fresh clock reads, which can be larger. A
// barrier stamp taken from the old incarnation can therefore lie above
// the new incarnation's commits for a while.
//
// A replica raises its map's commit clock (stm.Clock.Raise) to every
// stamp it applies, so a promoted replica's commits extend the dead
// primary's order.
package repl
