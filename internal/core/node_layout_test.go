package core

import (
	"testing"
	"unsafe"

	"repro/internal/stm"
)

// TestNodeHotFieldsFitOneCacheLine guards the cache-conscious layout
// node.go documents: for word-sized keys and values, everything a bucket
// probe (key, hash link, value) or a level-0 walk touches must land in
// the node's first 64 bytes. A field reorder or a type growing past a
// word shows up here as a failing offset, not as a silent throughput
// regression.
func TestNodeHotFieldsFitOneCacheLine(t *testing.T) {
	const line = 64
	var n node[int64, int64]
	hot := []struct {
		name string
		off  uintptr
		size uintptr
	}{
		{"orec", unsafe.Offsetof(n.orec), unsafe.Sizeof(n.orec)},
		{"next0", unsafe.Offsetof(n.next0), unsafe.Sizeof(n.next0)},
		{"prev0", unsafe.Offsetof(n.prev0), unsafe.Sizeof(n.prev0)},
		{"hnext", unsafe.Offsetof(n.hnext), unsafe.Sizeof(n.hnext)},
		{"rTime", unsafe.Offsetof(n.rTime), unsafe.Sizeof(n.rTime)},
		{"key", unsafe.Offsetof(n.key), unsafe.Sizeof(n.key)},
		{"val", unsafe.Offsetof(n.val), unsafe.Sizeof(n.val)},
		{"sentinel", unsafe.Offsetof(n.sentinel), unsafe.Sizeof(n.sentinel)},
	}
	for _, f := range hot {
		if end := f.off + f.size; end > line {
			t.Errorf("hot field %s spans [%d, %d), past the first %d-byte line",
				f.name, f.off, end, line)
		}
	}
	// The orec leads the struct: the fast path samples it before touching
	// anything else, and sharing its line with the level-0 links is the
	// point of the layout.
	if off := unsafe.Offsetof(n.orec); off != 0 {
		t.Errorf("orec at offset %d, want 0", off)
	}
}

// TestNodeSizeBudget pins the footprint of every shape newNode allocates
// for the word-sized instantiation, so an accidental field addition (or a
// field type gaining padding) is caught at review time. The bare node is
// two lines — the hot line plus the cold tail (insertion time, tower
// slice header, deferred-chain link) — and each co-allocated tower level
// adds two words, which must keep the shapes in the allocator's 128, 144
// and 160 byte size classes: one class up would cost more than the
// separate tower slice the shapes replace.
func TestNodeSizeBudget(t *testing.T) {
	if unsafe.Sizeof(tower[int64, int64]{}) != 2*unsafe.Sizeof(uintptr(0)) {
		t.Errorf("tower[int64,int64] is %d bytes, want two words", unsafe.Sizeof(tower[int64, int64]{}))
	}
	for _, c := range []struct {
		name          string
		size          uintptr
		above, budget uintptr // the size class is (above, budget]
	}{
		{"node", unsafe.Sizeof(node[int64, int64]{}), 0, 128},
		{"node2", unsafe.Sizeof(node2[int64, int64]{}), 112, 128},
		{"node3", unsafe.Sizeof(node3[int64, int64]{}), 128, 144},
		{"node4", unsafe.Sizeof(node4[int64, int64]{}), 144, 160},
	} {
		if c.size <= c.above || c.size > c.budget {
			t.Errorf("%s[int64,int64] is %d bytes, outside its (%d, %d] size class",
				c.name, c.size, c.above, c.budget)
		}
	}
	// The co-allocated shapes rely on the node leading the object (a
	// pointer to it keeps the tower alive) and on up slicing the
	// object's own array.
	for h := 2; h <= 4; h++ {
		n := newNode[int64, int64](h)
		if n.height() != h {
			t.Fatalf("newNode(%d).height() = %d", h, n.height())
		}
		want := unsafe.Add(unsafe.Pointer(n), unsafe.Sizeof(*n))
		if got := unsafe.Pointer(unsafe.SliceData(n.up)); got != want {
			t.Errorf("height %d: tower at %p, want %p (right behind the node)", h, got, want)
		}
	}
}

// TestFastReadCountersPadding keeps each striped counter cell on its own
// cache line; false sharing between stripes would silently serialize the
// very path the striping exists to scale.
func TestFastReadCountersPadding(t *testing.T) {
	if got := unsafe.Sizeof(stm.FastReadCounters{}); got != 64 {
		t.Errorf("FastReadCounters is %d bytes, want exactly one 64-byte line", got)
	}
}
