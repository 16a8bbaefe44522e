// Package repl streams a primary skip hash's write-ahead log to live
// replicas: recovery made remote. The WAL is the replication log: each
// follower's sender reads it back (persist.LogReader: the segments,
// then the append buffer) and ships the frames verbatim over the
// internal/wire replication channel, so a primary adds nothing to the
// commit path. A follower resumes from its log position for as long as
// the store keeps it; only a position a snapshot has truncated costs a
// full resync, which streams a snapshot file followed by log frames:
// the bytes persist.WriteSnapshot writes for Store.Snapshot, then the
// log.
//
// A replica is an ordinary durable map (skiphash.Open over its
// directory) that follows a primary. It checks every log frame with
// recovery's check (persist.WalkFrames) and refuses a bad frame or a
// gap. Once caught up it applies each record in stream order as one
// transaction, which its own WAL logs, and it keeps the primary
// position its map reflects in its directory, so a restarted replica
// recovers its log and resumes from there. A full resync lands on disk:
// a persist.Restore checks the snapshot file and the log after it as
// they arrive (every chunk frame's CRC, the trailer's pair total, the
// snapshot whole before the first log frame) and stages them as the
// files recovery reads; at CaughtUp they replace the directory's log,
// skiphash.Open recovers them, and the new map is swapped in while the
// old one served reads. It serves read-only traffic at an advertised
// commit-stamp watermark.
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
// primary's order. A promoted replica stays durable, and skiphash.Open
// reopens its directory as it is; it does not stream its WAL.
package repl
