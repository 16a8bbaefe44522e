// Orderbook: a concurrent limit order book on two skip hashes, the kind
// of ordered-map workload the paper's introduction motivates. Price
// levels are keys; traders insert and cancel orders concurrently while a
// market-data goroutine streams linearizable depth snapshots via range
// queries, and a matching goroutine uses point queries (best bid = Floor
// from the top, best ask = Ceil from the bottom) to cross the book.
//
// The skip hash's guarantees map directly onto exchange requirements:
// updates are O(1) expected, and a depth snapshot can never observe a
// half-applied order move because multi-level mutations run in one STM
// transaction.
package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/skiphash"
)

const (
	priceLevels = 10_000 // price grid in ticks
	midPrice    = priceLevels / 2
)

type book struct {
	bids *skiphash.Map[int64, int64] // price -> resting quantity
	asks *skiphash.Map[int64, int64]
}

func newBook() *book {
	return &book{
		bids: skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Buckets: 30011}),
		asks: skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Buckets: 30011}),
	}
}

// quote places quantity at a price level, accumulating atomically.
func quote(side *skiphash.Map[int64, int64], price, qty int64) {
	_ = side.Atomic(func(op *skiphash.Txn[int64, int64]) error {
		if cur, ok := op.Lookup(price); ok {
			op.Remove(price)
			op.Insert(price, cur+qty)
		} else {
			op.Insert(price, qty)
		}
		return nil
	})
}

// cancel removes up to qty from a price level, deleting empty levels.
func cancel(side *skiphash.Map[int64, int64], price, qty int64) {
	_ = side.Atomic(func(op *skiphash.Txn[int64, int64]) error {
		cur, ok := op.Lookup(price)
		if !ok {
			return nil
		}
		op.Remove(price)
		if cur > qty {
			op.Insert(price, cur-qty)
		}
		return nil
	})
}

func main() {
	b := newBook()
	var placed, cancelled, matches, snapshots atomic.Int64

	done := make(chan struct{})
	var wg sync.WaitGroup

	// Traders: random quoting and cancelling around the mid price.
	for t := 0; t < 6; t++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 42))
			for {
				select {
				case <-done:
					return
				default:
				}
				offset := int64(rng.Uint64()%500) + 1
				if rng.Uint64()%10 == 0 {
					offset = -2 // aggressive order crossing the spread
				}
				qty := int64(rng.Uint64()%100) + 1
				side, price := b.bids, midPrice-offset
				if rng.Uint64()&1 == 0 {
					side, price = b.asks, midPrice+offset
				}
				if rng.Uint64()%4 == 0 {
					cancel(side, price, qty)
					cancelled.Add(1)
				} else {
					quote(side, price, qty)
					placed.Add(1)
				}
			}
		}(uint64(t) + 1)
	}

	// Matcher: crosses the book whenever best bid >= best ask.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			bid, _, okB := b.bids.Floor(priceLevels)
			ask, _, okA := b.asks.Ceil(0)
			if okB && okA && bid >= ask {
				cancel(b.bids, bid, 10)
				cancel(b.asks, ask, 10)
				matches.Add(1)
			}
		}
	}()

	// Market data: linearizable depth snapshots near the touch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []skiphash.Pair[int64, int64]
		for {
			select {
			case <-done:
				return
			default:
			}
			buf = b.bids.Range(midPrice-100, midPrice, buf[:0])
			snapshots.Add(1)
			for i := 1; i < len(buf); i++ {
				if buf[i].Key <= buf[i-1].Key {
					panic("depth snapshot not sorted: torn range query")
				}
			}
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(done)
	wg.Wait()

	bidDepth := b.bids.Range(0, priceLevels, nil)
	askDepth := b.asks.Range(0, priceLevels, nil)
	fmt.Printf("orders placed:   %d\n", placed.Load())
	fmt.Printf("orders canceled: %d\n", cancelled.Load())
	fmt.Printf("matches crossed: %d\n", matches.Load())
	fmt.Printf("depth snapshots: %d\n", snapshots.Load())
	fmt.Printf("resting levels:  %d bids, %d asks\n", len(bidDepth), len(askDepth))
	if bb, _, ok := b.bids.Floor(priceLevels); ok {
		fmt.Printf("best bid: %d\n", bb)
	}
	if ba, _, ok := b.asks.Ceil(0); ok {
		fmt.Printf("best ask: %d\n", ba)
	}
}
