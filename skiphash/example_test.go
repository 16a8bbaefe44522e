package skiphash_test

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"repro/skiphash"
)

// must panics on err; an example has no *testing.T to fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// ExampleMap_Atomic_transfers is an inventory ledger: movers shift stock
// between shelves in multi-key transactions, deleting emptied shelves,
// while auditors sum whole-ledger range snapshots. Every transfer is one
// STM transaction and every range query is linearizable, so each audit
// sees the same total, which a lock-free map cannot promise without
// coordination of its own (§1: multi-word atomic operations can be fast
// and simple).
func ExampleMap_Atomic_transfers() {
	const shelves, perShelf, movers, transfers, auditors, audits = 1024, 100, 4, 2000, 2, 50
	ledger := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	for s := int64(0); s < shelves; s++ {
		ledger.Insert(s, perShelf)
	}

	var wg sync.WaitGroup
	for mv := range movers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(mv), 1))
			for range transfers {
				from, to := rng.Int64N(shelves), rng.Int64N(shelves)
				qty := rng.Int64N(50) + 1
				_ = ledger.Atomic(func(op *skiphash.Txn[int64, int64]) error {
					switch have, _ := op.Lookup(from); {
					case have < qty:
						return nil
					case have == qty:
						op.Remove(from)
					default:
						op.Put(from, have-qty)
					}
					got, _ := op.Lookup(to)
					op.Put(to, got+qty)
					return nil
				})
			}
		}()
	}
	totals := make([][]int64, auditors)
	for a := range auditors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []skiphash.Pair[int64, int64]
			for range audits {
				buf = ledger.Range(0, shelves, buf[:0])
				var sum int64
				for _, p := range buf {
					sum += p.Val
				}
				totals[a] = append(totals[a], sum)
			}
		}()
	}
	wg.Wait()
	seen := slices.Concat(totals...)
	slices.Sort(seen)
	fmt.Println("stock in every audit:", slices.Compact(seen))
	// Output: stock in every audit: [102400]
}

// quote adds qty at price, one read-modify-write transaction.
func quote(side *skiphash.Map[int64, int64], price, qty int64) {
	_ = side.Atomic(func(op *skiphash.Txn[int64, int64]) error {
		cur, _ := op.Lookup(price)
		op.Put(price, cur+qty)
		return nil
	})
}

// cancel takes up to qty off price, deleting the level when it empties.
func cancel(side *skiphash.Map[int64, int64], price, qty int64) {
	_ = side.Atomic(func(op *skiphash.Txn[int64, int64]) error {
		if cur, ok := op.Lookup(price); ok && cur > qty {
			op.Put(price, cur-qty)
		} else if ok {
			op.Remove(price)
		}
		return nil
	})
}

// ExampleMap_Floor is an order book: traders quote and cancel around
// the mid price, some crossing the spread, while a matcher finds the
// best bid with Floor and the best ask with Ceil and trades them, and a
// market-data reader takes depth snapshots with Range. Once the traders
// stop, the matcher runs until the book no longer crosses.
func ExampleMap_Floor() {
	const top, mid, traders, orders, snapshots = 10_000, 5_000, 4, 2000, 200
	bids := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	asks := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	// match trades the best bid against the best ask when the book is
	// crossed, and reports whether it was.
	match := func() bool {
		bid, bq, okB := bids.Floor(top)
		ask, aq, okA := asks.Ceil(0)
		if !okB || !okA || bid < ask {
			return false
		}
		cancel(bids, bid, min(bq, aq))
		cancel(asks, ask, min(bq, aq))
		return true
	}
	var tradersWG, wg sync.WaitGroup
	for t := range traders {
		tradersWG.Add(1)
		go func() {
			defer tradersWG.Done()
			rng := rand.New(rand.NewPCG(uint64(t), 2))
			for range orders {
				offset := rng.Int64N(500) + 1
				if rng.IntN(10) == 0 {
					offset = -2 // crosses the spread
				}
				side, price := bids, int64(mid)-offset
				if rng.IntN(2) == 0 {
					side, price = asks, mid+offset
				}
				if qty := rng.Int64N(100) + 1; rng.IntN(4) == 0 {
					cancel(side, price, qty)
				} else {
					quote(side, price, qty)
				}
			}
		}()
	}
	var tradersDone atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for done := false; !done; {
			done = tradersDone.Load() // before matching: the last pass sees every order
			for match() {
			}
		}
	}()
	var unsorted atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []skiphash.Pair[int64, int64]
		for range snapshots {
			buf = bids.Range(mid-100, mid, buf[:0])
			if !slices.IsSortedFunc(buf, func(x, y skiphash.Pair[int64, int64]) int { return cmp.Compare(x.Key, y.Key) }) {
				unsorted.Store(true)
			}
		}
	}()
	tradersWG.Wait()
	tradersDone.Store(true)
	wg.Wait()

	fmt.Println("crossed:", match())
	fmt.Println("depth snapshots sorted:", !unsorted.Load())
	// Output:
	// crossed: false
	// depth snapshots sorted: true
}

// ExampleMap_Pred is a sliding-window metrics store: sensors append
// readings under timestamps from one logical clock, an aggregator reads
// the newest window with Range, and an evictor walks up from the oldest
// sample, removing each one that has left the window. Once the sensors
// stop, the evictor makes a last pass, and Pred at the window's edge
// finds nothing older.
func ExampleMap_Pred() {
	const sensors, samples, window, windows = 4, 5000, 1000, 200
	store := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	var clock atomic.Int64
	var sensorsWG, wg sync.WaitGroup
	for s := range sensors {
		sensorsWG.Add(1)
		go func() {
			defer sensorsWG.Done()
			rng := rand.New(rand.NewPCG(uint64(s), 3))
			for range samples {
				store.Insert(clock.Add(1), 1000+rng.Int64N(100))
			}
		}()
	}
	var bad atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []skiphash.Pair[int64, int64]
		for range windows {
			now := clock.Load()
			buf = store.Range(now-window, now, buf[:0])
			for _, p := range buf {
				if p.Val < 1000 || p.Val >= 1100 {
					bad.Store(true)
				}
			}
		}
	}()
	// evict removes every sample below the cutoff; Succ of a present key
	// and Remove are both O(1) through the hash index.
	evict := func(cutoff int64) {
		k, _, ok := store.Ceil(0)
		for ok && k < cutoff {
			next, _, more := store.Succ(k)
			store.Remove(k)
			k, ok = next, more
		}
	}
	var sensorsDone atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !sensorsDone.Load() {
			evict(clock.Load() - window)
		}
	}()
	sensorsWG.Wait()
	sensorsDone.Store(true)
	wg.Wait()

	cutoff := clock.Load() - window
	evict(cutoff)
	_, _, stale := store.Pred(cutoff)
	fmt.Println("oldest resident inside window:", !stale)
	if bad.Load() {
		fmt.Println("a window saw an impossible reading")
	}
	// Output: oldest resident inside window: true
}
