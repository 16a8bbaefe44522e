// Package repl streams a primary skip hash's write-ahead log to live
// replicas: recovery made remote. The WAL is the replication log: each
// follower's sender reads it back (persist.LogReader: the segments,
// then the append buffer) and ships the frames verbatim over the
// internal/wire replication channel, so a primary adds nothing to the
// commit path. A primary has no listener of its own: a follower sends
// Follow on an ordinary connection to an internal/server whose
// namespace 0 is Primary.Backend, and the server hands that connection
// to the primary's sender, so followers share the server's accept
// loop, connection limit and Shutdown. A follower resumes from its log position for as long as
// the store keeps it; only a position a snapshot has truncated costs a
// full resync, which streams a snapshot file followed by log frames:
// the bytes persist.WriteSnapshot writes for Store.Snapshot, then the
// log.
//
// A replica is an ordinary durable map (skiphash.Open over its
// directory) that follows a primary. It checks every log frame with
// recovery's check (persist.WalkFrames) and refuses a bad frame or a
// gap. Outside a full resync it applies each record in stream order as
// one transaction, which its own WAL logs, and it keeps the primary
// position its map reflects in its directory, so a restarted replica
// recovers its log and resumes from there. The primary streams its log
// in bursts, each ended by a Heartbeat that carries a stamp covering
// every record the burst held; there is no separate catch-up phase, so
// the first Heartbeat ends catch-up. A full resync lands on disk: a
// persist.Restore checks the snapshot file and the log after it as they
// arrive (every chunk frame's CRC, the trailer's pair total, the
// snapshot whole before the first log frame) and stages them as the
// files recovery reads; at the first Heartbeat they replace the
// directory's log, skiphash.Open recovers them, and the new map is
// swapped in while the old one served reads. The new map runs on the
// old one's STM runtime, so its counters and commit observer carry
// over and its clock does not restart. It serves read-only traffic at
// an advertised commit-stamp watermark.
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
// the stamp of the Heartbeat that ends it, not raised to it: a new
// epoch is a new lineage, and the watermark restarts there even when
// that stamp is lower than the old lineage's. A promoted replica
// commits above its applied watermark, so its backend answers Watermark
// with a fresh clock read, as a primary's does.
//
// A restarted primary's stamps stay above the stamps it advertised
// before the crash. Watermark and heartbeats advertised fresh clock
// reads, which can exceed every logged stamp and so the floor recovery
// sets, but the clock counts wall-clock nanoseconds (stm.Clock): the
// restarted clock starts above every earlier read by the downtime.
// Known hazard, not handled: a wall clock that steps back by more than
// the downtime between two incarnations. A barrier stamp taken from the
// old incarnation can then lie above the new incarnation's commits for
// a while; a persisted horizon, a stamp bound written before any stamp
// above it is advertised, would guard that case.
//
// A replica raises its map's commit clock (stm.Clock.Raise) to every
// stamp it applies, so a promoted replica's commits extend the dead
// primary's order. Its own log stays ordered across a full resync into
// a lineage with lower stamps: the clock keeps its value, recovery only
// raises it, and the replica logs each applied record as its own
// transaction, stamped above everything the resync installed. A promoted replica stays durable, and skiphash.Open
// reopens its directory as it is; it does not stream its WAL.
package repl
