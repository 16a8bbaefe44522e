package core

import (
	"testing"
	"unsafe"

	"repro/internal/alloctest"
	"repro/internal/stm"
)

// TestNodeIsOneCacheLine guards the layout node.go documents: for
// word-sized keys and values the whole header — everything a bucket
// probe, a descent or a level-0 walk touches — is exactly one 64-byte
// line, with the orec first, and the allocator starts every height-1 node
// on a line boundary. A field added, reordered or grown past a word shows
// up here as a failing offset, not as a silent throughput regression.
func TestNodeIsOneCacheLine(t *testing.T) {
	const line = 64
	var n node[int64, int64]
	if size := unsafe.Sizeof(n); size != line {
		t.Errorf("node[int64,int64] is %d bytes, want exactly one %d-byte line", size, line)
	}
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"orec", unsafe.Offsetof(n.orec), unsafe.Sizeof(n.orec)},
		{"next0", unsafe.Offsetof(n.next0), unsafe.Sizeof(n.next0)},
		{"prev0", unsafe.Offsetof(n.prev0), unsafe.Sizeof(n.prev0)},
		{"hnext", unsafe.Offsetof(n.hnext), unsafe.Sizeof(n.hnext)},
		{"rTime", unsafe.Offsetof(n.rTime), unsafe.Sizeof(n.rTime)},
		{"key", unsafe.Offsetof(n.key), unsafe.Sizeof(n.key)},
		{"val", unsafe.Offsetof(n.val), unsafe.Sizeof(n.val)},
		{"meta", unsafe.Offsetof(n.meta), unsafe.Sizeof(n.meta)},
	} {
		if end := f.off + f.size; end > line {
			t.Errorf("field %s spans [%d, %d), past the %d-byte line", f.name, f.off, end, line)
		}
	}
	// The orec leads the struct: the fast path samples it before touching
	// anything else.
	if off := unsafe.Offsetof(n.orec); off != 0 {
		t.Errorf("orec at offset %d, want 0", off)
	}
	// A 64-byte object sits in a size class whose slots are line-aligned,
	// so the header never straddles two lines.
	nodes := make([]*node[int64, int64], 1000)
	for i := range nodes {
		nodes[i] = newNode[int64, int64](1)
		if addr := uintptr(unsafe.Pointer(nodes[i])); addr%line != 0 {
			t.Fatalf("height-1 node %d at %#x, not on a %d-byte boundary", i, addr, line)
		}
	}
}

// TestNodeMetaRoundTrip packs (height, insertion time) pairs at both
// extremes into node.meta and reads them back through the accessors.
func TestNodeMetaRoundTrip(t *testing.T) {
	for _, c := range []struct {
		height int
		iTime  uint64
	}{
		{1, 0}, {maxHeight, 0}, {1, maxITime}, {maxHeight, maxITime},
		{1, 1}, {maxHeight, maxITime - 1}, {20, 1 << 40},
	} {
		n := newNode[int64, int64](c.height)
		n.setITime(c.iTime)
		if h, it := n.height(), n.iTime(); h != c.height || it != c.iTime {
			t.Errorf("packed (height %d, iTime %d), read back (%d, %d)", c.height, c.iTime, h, it)
		}
		// A second stamp replaces the first and keeps the height.
		n.setITime(c.iTime / 3)
		if h, it := n.height(), n.iTime(); h != c.height || it != c.iTime/3 {
			t.Errorf("restamped (height %d, iTime %d), read back (%d, %d)", c.height, c.iTime/3, h, it)
		}
	}
	if maxITime != 1<<(64-heightBits)-1 || 1<<heightBits <= maxHeight {
		t.Errorf("heightBits %d cannot hold height %d beside a %d-bit insertion time", heightBits, maxHeight, 64-heightBits)
	}
}

// TestNodeSizeBudget pins the footprint of every shape newNode allocates
// for the word-sized instantiation, so an accidental field addition (or a
// field type gaining padding) is caught at review time. The bare node is
// one 64-byte line and each tower level behind it adds two words, which
// keeps heights 1 to 4 in the allocator's 64, 80, 96 and 112 byte size
// classes.
func TestNodeSizeBudget(t *testing.T) {
	nodeSize := unsafe.Sizeof(node[int64, int64]{})
	towerSize := unsafe.Sizeof(tower[int64, int64]{})
	if towerSize != 2*unsafe.Sizeof(uintptr(0)) {
		t.Errorf("tower[int64,int64] is %d bytes, want two words", towerSize)
	}
	if nodeSize != 64 {
		t.Errorf("node[int64,int64] is %d bytes, want 64", nodeSize)
	}
	// A deferred removal's list cell is the 16 bytes README promises.
	if cell := unsafe.Sizeof(deferred[int64, int64]{}); cell != towerSize {
		t.Errorf("deferred[int64,int64] is %d bytes, want two words", cell)
	}
	// Every shape newNode can pick, by tower levels: the tower starts
	// right behind the node (upper's arithmetic) and holds its levels.
	shapes := map[int]uintptr{0: nodeSize}
	for levels, s := range map[int]func() (size, off uintptr){
		1: shapeOf[[1]tower[int64, int64]], 2: shapeOf[[2]tower[int64, int64]],
		3: shapeOf[[3]tower[int64, int64]], 4: shapeOf[[4]tower[int64, int64]],
		5: shapeOf[[5]tower[int64, int64]], 6: shapeOf[[6]tower[int64, int64]],
		7: shapeOf[[7]tower[int64, int64]], 11: shapeOf[[11]tower[int64, int64]],
		15: shapeOf[[15]tower[int64, int64]], 23: shapeOf[[23]tower[int64, int64]],
		31: shapeOf[[31]tower[int64, int64]], 63: shapeOf[[63]tower[int64, int64]],
	} {
		size, off := s()
		if off != nodeSize {
			t.Errorf("%d-level shape: tower at offset %d, want %d (right behind the node)", levels, off, nodeSize)
		}
		if want := nodeSize + uintptr(levels)*towerSize; size != want {
			t.Errorf("%d-level shape is %d bytes, want %d", levels, size, want)
		}
		shapes[levels] = size
	}
	for _, c := range []struct {
		height        int
		above, budget uintptr // the size class is (above, budget]
	}{
		{2, 64, 80},
		{3, 80, 96},
		{4, 96, 112},
	} {
		if size := shapes[towerLevels(c.height)]; size <= c.above || size > c.budget {
			t.Errorf("height-%d node is %d bytes, outside its (%d, %d] size class", c.height, size, c.above, c.budget)
		}
	}
	for h := 1; h <= maxHeight; h++ {
		size, ok := shapes[towerLevels(h)]
		switch {
		case !ok:
			t.Fatalf("height %d: newNode picks a %d-level tower, which is no shape", h, towerLevels(h))
		case size < nodeSize+uintptr(h-1)*towerSize:
			t.Fatalf("height %d: shape of %d bytes cannot hold %d tower levels", h, size, h-1)
		}
		if n := newNode[int64, int64](h); n.height() != h {
			t.Fatalf("newNode(%d).height() = %d", h, n.height())
		}
		if alloctest.RaceEnabled {
			continue
		}
		if got := testing.AllocsPerRun(10, func() { nodeSink = newNode[int64, int64](h) }); got != 1 {
			t.Errorf("newNode(%d) allocates %v objects, want 1", h, got)
		}
	}
}

var nodeSink *node[int64, int64]

// shapeOf reports a shape's size and the offset of its tower.
func shapeOf[A any]() (size, off uintptr) {
	var s shape[int64, int64, A]
	return unsafe.Sizeof(s), unsafe.Offsetof(s.t)
}

// TestFastReadCountersPadding keeps each striped counter cell on whole
// cache lines, its counters followed by at least 56 bytes of padding
// (see stm.Stripes): the runtime's cell, where fast reads and
// transactions count (80 bytes of counters), and the map's, where
// ranges and reclamation count (48). False sharing between cells would
// silently serialize the very paths the striping exists to scale.
func TestFastReadCountersPadding(t *testing.T) {
	if got := unsafe.Sizeof(stm.Counters{}); got != 192 {
		t.Errorf("stm.Counters is %d bytes, want exactly three 64-byte lines", got)
	}
	if got := unsafe.Sizeof(mapCounters{}); got != 128 {
		t.Errorf("mapCounters is %d bytes, want exactly two 64-byte lines", got)
	}
}
