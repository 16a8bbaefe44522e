package wire

// The replication channel: the primary→replica stream reuses this
// package's frame transport but speaks ReplMsg payloads instead of the
// request/response codec. One TCP connection per follower carries, in
// order:
//
//	replica → primary   Follow {Epoch, Seq}            resume request
//	primary → replica   Follow {Epoch, Seq, Full}      stream header
//	primary → replica   SnapChunk {Stamp, Count, Ops}  full sync only
//	primary → replica   WalRecord {Seq, Stamp, Count, Ops}
//	primary → replica   CaughtUp {Stamp}               end of catch-up
//	primary → replica   Heartbeat {Stamp}              idle watermark
//
// The replica's Follow names the last (Epoch, Seq) it has applied;
// Seq 0 means "nothing". The primary answers with its own header: when
// the epochs match and the requested tail is still in the ring it
// replays from Seq+1 (Full=false); otherwise Full=true and the stream
// restarts from a snapshot, after which the replica must discard its
// state. Epochs are unique per primary incarnation, so a primary that
// crashed with a torn WAL tail and recovered never tail-feeds a
// replica that might have applied records the repair discarded.
//
// A SnapChunk and a WalRecord share one layout: Ops is an op list in
// the WAL's own encoding (persist.AppendPut, persist.DecodeOps), Count
// ops long, stamped with the chunk's read stamp or the record's commit
// stamp. A chunk's ops are all puts and its Seq is zero. Both ends must
// run the same build: the op list is encoded with the map's codecs,
// which the stream does not name.

// ReplMsg is one replication-channel message. Fields are meaningful
// per-op as documented above; unused fields are zero.
type ReplMsg struct {
	Op    Op
	Epoch uint64
	Seq   uint64
	Stamp uint64
	Count uint64
	Full  bool
	Ops   []byte
}

// AppendReplMsg appends m as one complete frame to dst.
func AppendReplMsg(dst []byte, m *ReplMsg) []byte {
	dst, hdr := beginFrame(dst)
	dst = append(dst, byte(m.Op))
	switch m.Op {
	case OpFollow:
		dst = appendU64(dst, m.Epoch)
		dst = appendU64(dst, m.Seq)
		dst = appendBool(dst, m.Full)
	case OpSnapChunk, OpWalRecord:
		dst = appendU64(dst, m.Seq)
		dst = appendU64(dst, m.Stamp)
		dst = appendU64(dst, m.Count)
		dst = appendU32(dst, uint32(len(m.Ops)))
		dst = append(dst, m.Ops...)
	case OpCaughtUp, OpHeartbeat:
		dst = appendU64(dst, m.Stamp)
	}
	return finishFrame(dst, hdr)
}

// ParseReplMsg decodes one replication payload. Ops is copied out of
// the frame buffer, so the buffer may be reused immediately.
func ParseReplMsg(payload []byte) (ReplMsg, error) {
	d := decoder{buf: payload}
	var m ReplMsg
	m.Op = Op(d.u8("op"))
	switch m.Op {
	case OpFollow:
		m.Epoch = d.u64("epoch")
		m.Seq = d.u64("seq")
		m.Full = d.u8("full") != 0
	case OpSnapChunk, OpWalRecord:
		m.Seq = d.u64("seq")
		m.Stamp = d.u64("stamp")
		m.Count = d.u64("count")
		n := d.u32("ops length")
		m.Ops = append([]byte(nil), d.bytes(int(n), "ops")...)
	case OpCaughtUp, OpHeartbeat:
		m.Stamp = d.u64("stamp")
	default:
		return m, protoErrf("unknown replication op %d", uint8(m.Op))
	}
	return m, d.finish()
}
