package stm

import (
	"math/rand/v2"
	"testing"
)

func BenchmarkReadOnlyTx(b *testing.B) {
	rt := New()
	var c cell
	c.v.Init(1)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = rt.Atomic(func(tx *Tx) error {
				_ = c.v.Load(tx, &c.orec)
				return nil
			})
		}
	})
}

func BenchmarkWriterTxDisjoint(b *testing.B) {
	rt := New()
	const cells = 4096
	cs := make([]cell, cells)
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(rand.Uint64(), 1))
		for pb.Next() {
			c := &cs[rng.Uint64()%cells]
			_ = rt.Atomic(func(tx *Tx) error {
				v := c.v.Load(tx, &c.orec)
				c.v.Store(tx, &c.orec, v+1)
				return nil
			})
		}
	})
}

func BenchmarkWriterTxContended(b *testing.B) {
	rt := New()
	var c cell
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = rt.Atomic(func(tx *Tx) error {
				v := c.v.Load(tx, &c.orec)
				c.v.Store(tx, &c.orec, v+1)
				return nil
			})
		}
	})
}

func BenchmarkMultiCellTx(b *testing.B) {
	// The skip hash's typical transaction shape: a handful of reads and
	// writes across several orecs.
	rt := New()
	const cells = 4096
	cs := make([]cell, cells)
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(rand.Uint64(), 2))
		for pb.Next() {
			i := rng.Uint64() % (cells - 4)
			_ = rt.Atomic(func(tx *Tx) error {
				for j := uint64(0); j < 4; j++ {
					c := &cs[i+j]
					v := c.v.Load(tx, &c.orec)
					if j&1 == 0 {
						c.v.Store(tx, &c.orec, v+1)
					}
				}
				return nil
			})
		}
	})
}

func BenchmarkClockNext(b *testing.B) {
	clk := New().Clock()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = clk.Next()
		}
	})
}
