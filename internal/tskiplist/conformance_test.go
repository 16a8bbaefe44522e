package tskiplist

import (
	"testing"

	"repro/internal/maptest"
	"repro/internal/stm"
)

// adapter exposes the STM skip list through the shared conformance
// interface (its single-transaction ranges are trivially linearizable,
// so the full suite applies).
type adapter struct {
	m *Map[int64, int64]
}

func (a adapter) Lookup(k int64) (int64, bool) { return a.m.Get(k) }
func (a adapter) Insert(k, v int64) bool       { return a.m.Insert(k, v) }
func (a adapter) Remove(k int64) bool          { return a.m.Remove(k) }

func (a adapter) Range(l, r int64, buf []maptest.KV) []maptest.KV {
	for _, p := range a.m.Range(l, r) {
		buf = append(buf, maptest.KV{Key: p.Key, Val: p.Val})
	}
	return buf
}

func (a adapter) Ceil(k int64) (int64, int64, bool)  { return a.point(k, a.m.CeilTx) }
func (a adapter) Floor(k int64) (int64, int64, bool) { return a.point(k, a.m.FloorTx) }
func (a adapter) Succ(k int64) (int64, int64, bool)  { return a.point(k, a.m.SuccTx) }
func (a adapter) Pred(k int64) (int64, int64, bool)  { return a.point(k, a.m.PredTx) }

func (a adapter) point(k int64, fn func(*stm.Tx, int64) (int64, int64, bool)) (int64, int64, bool) {
	var rk, rv int64
	var ok bool
	_ = a.m.Runtime().Atomic(func(tx *stm.Tx) error {
		rk, rv, ok = fn(tx, k)
		return nil
	})
	return rk, rv, ok
}

func (a adapter) CheckIdle() error { return a.m.CheckInvariants() }

func TestConformance(t *testing.T) {
	maptest.RunAll(t, func() maptest.OrderedMap {
		return adapter{m: New[int64, int64](stm.New(), lessInt64, DefaultMaxLevel)}
	})
}
