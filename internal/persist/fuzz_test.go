package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/stm"
)

// FuzzWALTail is the durability contract check: starting from a valid
// WAL built from a fuzz-chosen op script, an arbitrary tail mutation
// (truncation at any offset, or a byte flip anywhere) must leave
// recovery either succeeding with exactly a prefix of the logged
// records — never fewer than the records the mutation could not have
// touched — or failing with a checksum/corruption error. It must never
// silently load wrong data.
func FuzzWALTail(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x31, 0x44, 0x05}, uint32(20), byte(0x40), false)
	f.Add([]byte{0x01, 0x12, 0x23, 0x31, 0x44, 0x05}, uint32(30), byte(0), true)
	f.Add([]byte{0xff, 0x00, 0x80, 0x41}, uint32(5), byte(0x01), false)
	f.Add([]byte{}, uint32(0), byte(0xff), true)
	f.Add([]byte{0x21, 0x01, 0x31, 0x11, 0x22}, uint32(60), byte(0x08), false)
	f.Add([]byte{0x21, 0x01, 0x31, 0x11, 0x22}, uint32(70), byte(0), true)
	f.Fuzz(func(t *testing.T, script []byte, mutPos uint32, mutByte byte, truncate bool) {
		if len(script) > 512 {
			script = script[:512]
		}
		const universe = 16
		dir := t.TempDir()
		opts := Options{Dir: dir, Fsync: FsyncNone, SnapshotBytes: -1}
		st, err := Open[int64, int64](opts, int64Less, Int64Codec(), Int64Codec())
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		rt := stm.New()
		var ws writeScratch

		// Apply the script: each byte is one record — a put or a delete,
		// or with bit 0x20 set the two-op record (del k; put k v) that Put
		// logs. Track the model state after every prefix, and each
		// record's end offset in the (single) segment file.
		type state [universe]struct {
			v  int64
			ok bool
		}
		var cur state
		states := []state{cur}
		frameEnds := []int64{int64(len(walMagic))}
		off := int64(len(walMagic))
		for i, b := range script {
			k := int64(b % universe)
			replace := b&0x20 != 0
			put := replace || b&0x10 == 0
			v := int64(i)
			if err := rt.Atomic(func(tx *stm.Tx) error {
				ws.f.Store(tx, &ws.o, ws.f.Raw()+1)
				if !put || replace {
					st.LogDel(tx, k)
				}
				if put {
					st.LogPut(tx, k, v)
				}
				return nil
			}); err != nil {
				t.Fatalf("log: %v", err)
			}
			if put {
				cur[k].v, cur[k].ok = v, true
			} else {
				cur[k].v, cur[k].ok = 0, false
			}
			states = append(states, cur)
			// Frame size: header(8) + stamp(8) + uvarint(1 for count<128),
			// then per op kind(1) + key(8), plus value(8) for the put.
			sz := int64(8 + 8 + 1)
			if !put || replace {
				sz += 1 + 8
			}
			if put {
				sz += 1 + 8 + 8
			}
			off += sz
			frameEnds = append(frameEnds, off)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if len(segs) == 0 {
			// Segments are created lazily on the first flush; an empty
			// script leaves an empty directory, and recovery of that must
			// be an empty map.
			if len(script) != 0 {
				t.Fatalf("no segment despite %d records", len(script))
			}
			st2, err := Open[int64, int64](opts, int64Less, Int64Codec(), Int64Codec())
			if err != nil {
				t.Fatalf("empty-dir recovery: %v", err)
			}
			defer st2.Close()
			if len(st2.TakeRecovered()) != 0 {
				t.Fatal("empty dir recovered entries")
			}
			return
		}
		if len(segs) != 1 {
			t.Fatalf("expected one segment, got %d", len(segs))
		}
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != off {
			t.Fatalf("segment is %d bytes, computed %d", len(data), off)
		}

		// Mutate the file.
		mutated := false
		var mutOff int64
		if len(data) > 0 {
			mutOff = int64(mutPos) % int64(len(data)+1)
			if truncate {
				data = data[:mutOff]
				mutated = mutOff < off
			} else if mutOff < int64(len(data)) && mutByte != 0 {
				data[mutOff] ^= mutByte
				mutated = true
			}
		}
		if err := os.WriteFile(segs[0], data, 0o644); err != nil {
			t.Fatal(err)
		}

		// untouched counts records whose frames end at or before the
		// mutation offset — the mutation cannot explain losing them.
		untouched := len(script)
		if mutated {
			untouched = 0
			for untouched < len(script) && frameEnds[untouched+1] <= mutOff {
				untouched++
			}
		}

		st2, err := Open[int64, int64](opts, int64Less, Int64Codec(), Int64Codec())
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("recovery failed with a non-corruption error: %v", err)
			}
			if truncate {
				t.Fatalf("pure truncation must be tolerated as a torn tail, got %v", err)
			}
			return
		}
		defer st2.Close()
		var got state
		for _, kv := range st2.TakeRecovered() {
			if kv.Key < 0 || kv.Key >= universe {
				t.Fatalf("recovered impossible key %d", kv.Key)
			}
			got[kv.Key].v, got[kv.Key].ok = kv.Val, true
		}
		n := st2.Recovered().Records
		if n > len(script) {
			t.Fatalf("recovered %d records from %d logged", n, len(script))
		}
		if n < untouched {
			t.Fatalf("recovery dropped untouched records: got %d, mutation at %d leaves %d intact", n, mutOff, untouched)
		}
		if got != states[n] {
			t.Fatalf("recovered state does not match the model after %d records:\n got %v\nwant %v", n, got, states[n])
		}
	})
}

// snapshotSeed is FuzzSnapshotFile's valid file: four chunks read at
// out-of-order stamps, the last one empty as a snapshot of a map ends
// when its final chunk reaches the tail, and the pairs they hold.
func snapshotSeed(f *testing.F) ([]byte, []KV[int64, int64]) {
	chunks := []testChunk{
		{stamp: 100, kvs: []KV[int64, int64]{{Key: 1, Val: 10}, {Key: 2, Val: 20}, {Key: 3, Val: 30}}},
		{stamp: 120, kvs: []KV[int64, int64]{{Key: 4, Val: 40}}},
		{stamp: 110, kvs: []KV[int64, int64]{{Key: 5, Val: 50}, {Key: 6, Val: 60}}},
		{stamp: 130},
	}
	var pairs []KV[int64, int64]
	for _, c := range chunks {
		pairs = append(pairs, c.kvs...)
	}
	return encodeTestSnapshot(f, chunks), pairs
}

// FuzzSnapshotFile throws arbitrary bytes at the snapshot check-and-fold
// that recovery and a replica's full resync share (Fold.AddSnapshot,
// then EndSnapshot), once whole and once cut in two at split, as a
// stream may cut it. Seeded with a valid multi-chunk file, a truncated
// and a flipped one, it must return exactly the valid file's pairs or
// an error matching ErrCorrupt, and never panic.
func FuzzSnapshotFile(f *testing.F) {
	valid, want := snapshotSeed(f)
	f.Add(valid, uint16(0))
	f.Add(valid, uint16(37))
	f.Add(valid[:len(valid)-5], uint16(20))
	flipped := bytes.Clone(valid)
	flipped[30] ^= 0x04
	f.Add(flipped, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		for _, cut := range []int{len(data), int(split) % (len(data) + 1)} {
			fold := NewFold(int64Less, Int64Codec(), Int64Codec())
			err := fold.AddSnapshot(data[:cut])
			if err == nil {
				err = fold.AddSnapshot(data[cut:])
			}
			if err == nil {
				err = fold.EndSnapshot()
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("cut at %d: a non-corruption error: %v", cut, err)
				}
				continue
			}
			if got := fold.Pairs(); !slices.Equal(got, want) {
				t.Fatalf("cut at %d: folded %v, want %v", cut, got, want)
			}
		}
	})
}
