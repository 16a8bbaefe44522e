package wire

// Arena sizes. A chunk holds 256 of the 16-byte keys the served
// benchmarks use; a string longer than arenaMaxString (a large value, a
// STATS blob) would waste most of a chunk and gets its own allocation.
const (
	arenaChunk     = 4 << 10
	arenaMaxString = 512
)

// Arena is where the decoder puts the byte strings it reads: v2 keys,
// values, range pairs, batch steps and the STATS blob. Short strings are
// carved out of fixed-size chunks, so a decoded frame costs no heap
// object per string. A chunk that holds slices already handed out is
// never grown or reallocated: when it is full the arena starts a new one
// and leaves the old one to whoever still holds its slices. Every slice
// is capped at its own length, so appending to one reallocates instead
// of overwriting its neighbour.
//
// The zero Arena is ready to use. An Arena is not safe for concurrent
// use, but the slices it hands out may be read anywhere.
type Arena struct {
	chunk []byte // the chunk being filled; its length is what is handed out
	size  int    // the size of a new chunk; 0 means arenaChunk
}

// Rewind lets the arena hand out its current chunk again from the start.
// The caller guarantees that nothing reads a slice the arena handed out
// before the call.
func (a *Arena) Rewind() { a.chunk = a.chunk[:0] }

// copy returns a copy of b that aliases no other slice the arena handed
// out.
func (a *Arena) copy(b []byte) []byte {
	n := len(b)
	if n == 0 {
		return []byte{}
	}
	if n > arenaMaxString {
		out := make([]byte, n)
		copy(out, b)
		return out
	}
	if cap(a.chunk)-len(a.chunk) < n {
		size := arenaChunk
		if a.size > 0 {
			size = a.size
		}
		a.chunk = make([]byte, 0, size)
	}
	off := len(a.chunk)
	a.chunk = append(a.chunk, b...)
	return a.chunk[off:len(a.chunk):len(a.chunk)]
}
