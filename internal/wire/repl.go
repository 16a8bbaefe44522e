package wire

// The replication channel: the primary→replica stream reuses this
// package's frame transport but speaks ReplMsg payloads instead of the
// request/response codec. A follower opens it with a Follow request on
// an ordinary serving connection (Key = epoch, Val = log position);
// the StatusOK response ends the request/response traffic, and the
// connection then carries, in order:
//
//	replica → primary   Follow request {Key, Val}      resume request
//	primary → replica   Follow response (status)       StatusOK, no body
//	primary → replica   Follow {Epoch, Seq, Full}      stream header
//	primary → replica   SnapChunk {Data}               full sync only
//	primary → replica   WalRecord {Seq, Data}          a run of WAL frames
//	primary → replica   Heartbeat {Stamp}              end of a burst
//
// WalRecords and Heartbeats repeat for the life of the connection: the
// primary streams its log in bursts and ends each with a Heartbeat
// whose stamp covers every record the burst carried, and it heartbeats
// an idle follower periodically. The first Heartbeat ends catch-up,
// and a full sync's swap with it.
// A server that does not stream its log answers the Follow request with
// an error status, and the connection keeps serving requests.
//
// Seq is a log position: a byte offset into the WAL the primary's store
// has appended since it opened. The Follow request names the last
// epoch the replica followed and its position; when the epochs match
// and the log still holds that position the primary streams from there
// (Full=false), otherwise Full=true, Seq is where the log resumes after
// a snapshot, and the replica must discard its state. Epochs are unique
// per primary incarnation, so a primary that crashed with a torn WAL
// tail and recovered never tail-feeds a replica that might have applied
// records the repair discarded.
//
// A full sync's stream is a snapshot file followed by log frames: the
// SnapChunks carry, in order, runs of the bytes of one snapshot file as
// the store writes it to disk (WalRecord's layout, Seq zero); a
// WalRecord is a run of whole WAL frames, verbatim (CRC included),
// starting at position Seq. Stamps and counts travel inside the frames.
// Both ends must run the same build: the stream does not name the map's
// codecs.

// ReplMsg is one replication-channel message. Fields are meaningful
// per-op as documented above; unused fields are zero.
type ReplMsg struct {
	Op    Op
	Epoch uint64
	Seq   uint64
	Stamp uint64
	Full  bool
	Data  []byte
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
		dst = appendU32(dst, uint32(len(m.Data)))
		dst = append(dst, m.Data...)
	case OpHeartbeat:
		dst = appendU64(dst, m.Stamp)
	}
	return finishFrame(dst, hdr)
}

// ParseReplMsg decodes one replication payload. Data is copied out of
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
		n := d.u32("data length")
		m.Data = append([]byte(nil), d.bytes(int(n), "data")...)
	case OpHeartbeat:
		m.Stamp = d.u64("stamp")
	default:
		return m, protoErrf("unknown replication op %d", uint8(m.Op))
	}
	return m, d.finish()
}
