package core

import (
	"strings"
	"testing"
)

// TestMaxLevelBounds pins the range Config.MaxLevel accepts: any height a
// node can take, 1..64 (0 selects the default 20), builds a map that
// stays sound under inserts and removals; a value outside [0, 64] panics
// at construction with a message naming the field, rather than letting a
// tower grow past the largest node shape.
func TestMaxLevelBounds(t *testing.T) {
	for _, c := range []struct{ cfg, want int }{{0, 20}, {1, 1}, {20, 20}, {64, 64}} {
		m := newTestMap(t, Config{MaxLevel: c.cfg})
		if got := m.Config().MaxLevel; got != c.want {
			t.Errorf("MaxLevel %d: map built with %d, want %d", c.cfg, got, c.want)
		}
		for k := int64(0); k < 2000; k++ {
			m.Insert(k*7%2000, k)
		}
		for k := int64(0); k < 2000; k += 3 {
			m.Remove(k)
		}
		if err := m.CheckInvariants(CheckOptions{}); err != nil {
			t.Errorf("MaxLevel %d: %v", c.cfg, err)
		}
	}
	for _, bad := range []int{-1, 65} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "MaxLevel") {
					t.Errorf("MaxLevel %d: recovered %v, want a panic naming MaxLevel", bad, r)
				}
			}()
			newTestMap(t, Config{MaxLevel: bad})
		}()
	}
}

// TestCheckInvariantsCatchesUnlinkedLevel unlinks one upper level of a
// tall node by hand: the node still looks sound from every level that
// reaches it, so only the per-level link count, compared against the
// level-0 height histogram, can notice it is missing where it belongs.
func TestCheckInvariantsCatchesUnlinkedLevel(t *testing.T) {
	m := newTestMap(t, Config{})
	for k := int64(0); k < 1000; k++ {
		m.Insert(k, k)
	}
	if err := m.CheckInvariants(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	n := m.head.next0.Raw()
	for n != m.tail && n.height() < 3 {
		n = n.next0.Raw()
	}
	if n == m.tail {
		t.Fatal("no node of height 3 or more among 1000")
	}
	const l = 1
	p, s := n.prevAt(l).Raw(), n.nextAt(l).Raw()
	p.nextAt(l).Init(s)
	s.prevAt(l).Init(p)
	err := m.CheckInvariants(CheckOptions{})
	if err == nil || !strings.Contains(err.Error(), "level 1 links") {
		t.Fatalf("CheckInvariants after unlinking level 1 of node %v = %v, want a level-1 link count error", n.key, err)
	}
}
