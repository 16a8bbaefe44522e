package vcasbst

import (
	"testing"

	"repro/internal/epoch"
	"repro/internal/maptest"
)

func TestConformanceHybridSource(t *testing.T) {
	maptest.RunAll(t, func() maptest.OrderedMap {
		return New(Config{Source: epoch.NewHybridSource()})
	})
}

func TestConformanceCounterSource(t *testing.T) {
	maptest.RunAll(t, func() maptest.OrderedMap {
		return New(Config{Source: epoch.NewCounterSource()})
	})
}

func TestEmptyTreeQueries(t *testing.T) {
	m := New(Config{})
	if _, ok := m.Lookup(1); ok {
		t.Error("empty tree reports key")
	}
	if m.Remove(1) {
		t.Error("empty tree removes key")
	}
	if got := m.Range(-100, 100, nil); len(got) != 0 {
		t.Errorf("empty tree range = %v", got)
	}
	if err := m.CheckIdle(); err != nil {
		t.Error(err)
	}
}

func TestDeleteDownToEmpty(t *testing.T) {
	m := New(Config{})
	keys := []int64{5, 3, 8, 1, 4, 7, 9, 2, 6}
	for _, k := range keys {
		if !m.Insert(k, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	for _, k := range keys {
		if !m.Remove(k) {
			t.Fatalf("Remove(%d) failed", k)
		}
		if err := m.CheckIdle(); err != nil {
			t.Fatalf("after removing %d: %v", k, err)
		}
	}
	if got := m.Range(0, 10, nil); len(got) != 0 {
		t.Errorf("range after emptying = %v", got)
	}
	// Tree is reusable after full drain.
	if !m.Insert(42, 42) {
		t.Error("insert after drain failed")
	}
}

func TestSnapshotSeesRemovedLeaf(t *testing.T) {
	m := New(Config{Source: epoch.NewCounterSource()})
	for k := int64(0); k < 16; k++ {
		m.Insert(k, k)
	}
	ts, ticket := m.tracker.Begin(m.src)
	m.Remove(7)
	m.Insert(100, 100)
	got := m.rangeAt(m.root, ts, 0, 200, nil)
	m.tracker.Exit(ticket)
	if len(got) != 16 {
		t.Fatalf("snapshot range has %d keys, want 16: %v", len(got), got)
	}
	for i, p := range got {
		if p.Key != int64(i) {
			t.Errorf("snapshot[%d] = %d, want %d", i, p.Key, i)
		}
	}
	now := m.Range(0, 200, nil)
	if len(now) != 16 || now[len(now)-1].Key != 100 {
		t.Errorf("current range = %v", now)
	}
}
