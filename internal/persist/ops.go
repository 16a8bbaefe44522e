package persist

import "fmt"

// DecodeOps walks one op list — count operations encoded as [kind][key]
// for deletes and [kind][key][value] for puts, as Store.LogPut and
// LogDel append them — calling put/del for each in encoded order. It is
// the one decoder for that format, which WAL records carry on disk and
// on the replication wire. A Fold adds a record's ops through it, in
// recovery and in a replica's full resync; a live replica applies
// streamed records through it (internal/repl). A callback's non-nil
// error aborts the walk and is returned as-is; decode failures are
// CRC-valid bytes that do not parse (codec mismatch, malformed op list)
// and wrap ErrCorrupt.
func DecodeOps[K comparable, V any](ops []byte, count uint64, kc Codec[K], vc Codec[V],
	put func(k K, v V) error, del func(k K) error) error {
	body := ops
	for i := uint64(0); i < count; i++ {
		if len(body) < 1 {
			return fmt.Errorf("%w: truncated op list", ErrCorrupt)
		}
		kind := body[0]
		body = body[1:]
		k, n, err := kc.Read(body)
		if err != nil {
			return fmt.Errorf("%w: key decode: %v", ErrCorrupt, err)
		}
		body = body[n:]
		switch kind {
		case opPut:
			v, n, err := vc.Read(body)
			if err != nil {
				return fmt.Errorf("%w: value decode: %v", ErrCorrupt, err)
			}
			body = body[n:]
			if err := put(k, v); err != nil {
				return err
			}
		case opDel:
			if err := del(k); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unknown op kind %d", ErrCorrupt, kind)
		}
	}
	if len(body) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body))
	}
	return nil
}
