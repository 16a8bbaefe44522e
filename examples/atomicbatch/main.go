// Atomicbatch: the STM dividend. An inventory ledger moves stock between
// warehouse locations with multi-key transactions; auditors take range
// snapshots of whole shelves concurrently. Because every transfer is one
// STM transaction and every snapshot is linearizable, the total stock is
// identical in every audit — a guarantee lock-free maps cannot offer
// without external coordination, and the skip hash gets for free (§1's
// "multi-word atomic operations can be fast and simple").
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
	locations  = 4096
	perLoc     = 100
	totalStock = locations * perLoc
)

func main() {
	ledger := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	for loc := int64(0); loc < locations; loc++ {
		ledger.Insert(loc, perLoc)
	}

	var transfers, audits atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Movers: transfer random quantities between random locations,
	// deleting emptied shelves and creating new ones — so the key set
	// churns, not just the values.
	for mv := 0; mv < 8; mv++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0xabc))
			for {
				select {
				case <-done:
					return
				default:
				}
				from := int64(rng.Uint64() % locations)
				to := int64(rng.Uint64() % locations)
				if from == to {
					continue
				}
				qty := int64(rng.Uint64()%50) + 1
				err := ledger.Atomic(func(op *skiphash.Txn[int64, int64]) error {
					fromQty, ok := op.Lookup(from)
					if !ok || fromQty < qty {
						return nil // not enough stock; commit as no-op
					}
					op.Remove(from)
					if fromQty > qty {
						op.Insert(from, fromQty-qty)
					}
					toQty, _ := op.Lookup(to)
					op.Remove(to)
					op.Insert(to, toQty+qty)
					return nil
				})
				if err == nil {
					transfers.Add(1)
				}
			}
		}(uint64(mv) + 1)
	}

	// Auditors: every range snapshot must account for every unit.
	for a := 0; a < 3; a++ {
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
				buf = ledger.Range(0, locations, buf[:0])
				var sum int64
				for _, p := range buf {
					sum += p.Val
				}
				if sum != totalStock {
					panic(fmt.Sprintf("audit found %d units, expected %d: torn snapshot",
						sum, totalStock))
				}
				audits.Add(1)
			}
		}()
	}

	time.Sleep(500 * time.Millisecond)
	close(done)
	wg.Wait()

	final := ledger.Range(0, locations, nil)
	var sum int64
	for _, p := range final {
		sum += p.Val
	}
	fmt.Printf("transfers committed: %d\n", transfers.Load())
	fmt.Printf("audits passed:       %d (every one saw exactly %d units)\n",
		audits.Load(), totalStock)
	fmt.Printf("final stock:         %d units across %d locations\n", sum, len(final))
	if sum != totalStock {
		panic("final stock drifted")
	}
}
