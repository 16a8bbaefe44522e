package skiphash_test

import (
	"math"
	"sort"
	"testing"

	"repro/skiphash"
)

// FuzzOps drives the public API — including Atomic batches, range and
// point queries — from a fuzz-provided opcode stream and checks every
// answer against a reference model map, then audits the structural
// invariants. Keys decode through a table that pins the boundary values
// (MinInt64, MaxInt64, 0, negatives) alongside a small contended
// universe, so duplicate and boundary keys are the common case.
func FuzzOps(f *testing.F) {
	// Seed corpus: empty input, duplicate keys, boundary keys, a batch,
	// and a mixed stream touching every opcode.
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 5, 2, 5, 1, 5, 1, 5})
	f.Add([]byte{0, 250, 0, 251, 0, 252, 0, 253, 7, 250, 251, 1, 250, 2, 251})
	f.Add([]byte{8, 2, 0, 1, 1, 2, 0, 3, 2, 3})
	f.Add([]byte{0, 1, 9, 2, 20, 3, 7, 4, 7, 0, 9, 5, 17, 6, 30, 7, 0, 40, 8, 1, 2, 9})
	// Fast-path reads interleaved with writes on the same keys: every
	// Lookup lands between commits that move the keys' bucket orecs.
	f.Add([]byte{0, 5, 2, 5, 1, 5, 2, 5, 3, 6, 2, 6, 0, 6, 2, 7, 1, 6, 2, 6})
	// Ordered queries inside a batch see the batch's own writes: insert
	// two keys, then Ceil below them and Range over them; remove one,
	// then Floor, Succ and Pred around it and a Range across it.
	f.Add([]byte{8, 0, 3, 0, 5, 0, 7, 3, 4, 7 | 4<<3, 5})
	f.Add([]byte{0, 5, 0, 6, 0, 7, 8, 0, 3, 1, 6, 4, 6, 5, 5, 6, 7, 8, 0, 1, 7 | 3<<3, 4, 1, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{Buckets: 127, MaxLevel: 8})
		model := make(map[int64]int64)
		pos := 0
		next := func() (byte, bool) {
			if pos >= len(data) {
				return 0, false
			}
			b := data[pos]
			pos++
			return b, true
		}
		step := int64(0)
		for {
			opc, ok := next()
			if !ok {
				break
			}
			kb, _ := next()
			k := fuzzKey(kb)
			step++
			v := step << 8
			switch opc % 10 {
			case 0: // Insert
				got := m.Insert(k, v)
				_, present := model[k]
				if got == present {
					t.Fatalf("step %d: Insert(%d) = %v with present=%v", step, k, got, present)
				}
				if !present {
					model[k] = v
				}
			case 1: // Remove
				got := m.Remove(k)
				_, present := model[k]
				if got != present {
					t.Fatalf("step %d: Remove(%d) = %v with present=%v", step, k, got, present)
				}
				delete(model, k)
			case 2: // Lookup
				got, ok := m.Lookup(k)
				want, present := model[k]
				if ok != present || (ok && got != want) {
					t.Fatalf("step %d: Lookup(%d) = %d,%v want %d,%v", step, k, got, ok, want, present)
				}
			case 3: // Put
				replaced := m.Put(k, v)
				_, present := model[k]
				if replaced != present {
					t.Fatalf("step %d: Put(%d) = %v with present=%v", step, k, replaced, present)
				}
				model[k] = v
			case 4: // Ceil
				checkFuzzBound(t, step, "Ceil", k, model, m.Ceil, func(mk int64) bool { return mk >= k }, false)
			case 5: // Floor
				checkFuzzBound(t, step, "Floor", k, model, m.Floor, func(mk int64) bool { return mk <= k }, true)
			case 6: // Succ
				checkFuzzBound(t, step, "Succ", k, model, m.Succ, func(mk int64) bool { return mk > k }, false)
			case 7: // Pred
				checkFuzzBound(t, step, "Pred", k, model, m.Pred, func(mk int64) bool { return mk < k }, true)
			case 8: // Atomic batch of up to 4 steps
				nb, _ := next()
				count := int(nb%4) + 1
				type bstep struct {
					op   byte
					k    int64
					span byte // a Range step's width
				}
				steps := make([]bstep, 0, count)
				for i := 0; i < count; i++ {
					ob, _ := next()
					bk, _ := next()
					steps = append(steps, bstep{op: ob % 8, k: fuzzKey(bk), span: ob >> 3})
				}
				// The closure may re-execute on conflict; it recomputes
				// from a fresh model clone each attempt.
				var scratch map[int64]int64
				err := m.Atomic(func(op *skiphash.Txn[int64, int64]) error {
					scratch = make(map[int64]int64, len(model))
					for mk, mv := range model {
						scratch[mk] = mv
					}
					for i, s := range steps {
						sv := v + int64(i)
						switch s.op {
						case 0:
							got := op.Insert(s.k, sv)
							_, present := scratch[s.k]
							if got == present {
								t.Errorf("step %d: batch Insert(%d) = %v with present=%v", step, s.k, got, present)
							}
							if !present {
								scratch[s.k] = sv
							}
						case 1:
							got := op.Remove(s.k)
							_, present := scratch[s.k]
							if got != present {
								t.Errorf("step %d: batch Remove(%d) = %v with present=%v", step, s.k, got, present)
							}
							delete(scratch, s.k)
						case 2:
							got, ok := op.Lookup(s.k)
							want, present := scratch[s.k]
							if ok != present || (ok && got != want) {
								t.Errorf("step %d: batch Lookup(%d) = %d,%v want %d,%v", step, s.k, got, ok, want, present)
							}
						case 3, 4, 5, 6:
							q := [...]struct {
								name  string
								fn    func(int64) (int64, int64, bool)
								pred  func(int64) bool
								isMax bool
							}{
								{"Ceil", op.Ceil, func(mk int64) bool { return mk >= s.k }, false},
								{"Floor", op.Floor, func(mk int64) bool { return mk <= s.k }, true},
								{"Succ", op.Succ, func(mk int64) bool { return mk > s.k }, false},
								{"Pred", op.Pred, func(mk int64) bool { return mk < s.k }, true},
							}[s.op-3]
							gk, gv, gok := q.fn(s.k)
							if wk, wv, wok := fuzzBound(scratch, q.pred, q.isMax); gok != wok || (gok && (gk != wk || gv != wv)) {
								t.Errorf("step %d: batch %s(%d) = %d,%d,%v want %d,%d,%v", step, q.name, s.k, gk, gv, gok, wk, wv, wok)
							}
						case 7:
							lo, hi := s.k, s.k
							if hi <= math.MaxInt64-int64(s.span) {
								hi += int64(s.span)
							} else {
								hi = math.MaxInt64
							}
							got := op.Range(lo, hi, nil)
							want := modelPairs(scratch, lo, hi)
							if len(got) != len(want) {
								t.Errorf("step %d: batch Range(%d,%d) = %v want %v", step, lo, hi, got, want)
								break
							}
							for i := range want {
								if got[i] != want[i] {
									t.Errorf("step %d: batch Range(%d,%d) = %v want %v", step, lo, hi, got, want)
									break
								}
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("step %d: Atomic returned %v", step, err)
				}
				model = scratch
			case 9: // Range
				span, _ := next()
				lo, hi := k, k
				// Guard against overflow at the MaxInt64 boundary.
				if hi <= math.MaxInt64-int64(span) {
					hi = k + int64(span)
				} else {
					hi = math.MaxInt64
				}
				got := m.Range(lo, hi, nil)
				want := modelPairs(model, lo, hi)
				if len(got) != len(want) {
					t.Fatalf("step %d: Range(%d,%d) returned %d pairs, want %d", step, lo, hi, len(got), len(want))
				}
				for i := range want {
					if got[i].Key != want[i].Key || got[i].Val != want[i].Val {
						t.Fatalf("step %d: Range(%d,%d)[%d] = %v want %v", step, lo, hi, i, got[i], want[i])
					}
				}
			}
		}
		// Final audit: full contents and structural invariants.
		got := m.Range(math.MinInt64, math.MaxInt64, nil)
		want := modelPairs(model, math.MinInt64, math.MaxInt64)
		if len(got) != len(want) {
			t.Fatalf("final population %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || got[i].Val != want[i].Val {
				t.Fatalf("final pair %d = %v, want %v", i, got[i], want[i])
			}
		}
		if err := m.CheckInvariants(skiphash.CheckOptions{}); err != nil {
			t.Fatalf("invariants: %v", err)
		}
	})
}

// fuzzKey decodes a key byte: most values land in a small contended
// universe (with negatives), the top of the range pins boundaries.
func fuzzKey(b byte) int64 {
	switch b {
	case 250:
		return math.MinInt64
	case 251:
		return math.MaxInt64
	case 252:
		return math.MinInt64 + 1
	case 253:
		return math.MaxInt64 - 1
	case 254:
		return -1
	case 255:
		return 1
	default:
		return int64(b%48) - 8
	}
}

func checkFuzzBound(t *testing.T, step int64, name string, k int64, model map[int64]int64,
	q func(int64) (int64, int64, bool), pred func(int64) bool, wantMax bool) {
	t.Helper()
	gk, gv, gok := q(k)
	if wk, wv, wok := fuzzBound(model, pred, wantMax); gok != wok || (gok && (gk != wk || gv != wv)) {
		t.Fatalf("step %d: %s(%d) = %d,%d,%v want %d,%d,%v", step, name, k, gk, gv, gok, wk, wv, wok)
	}
}

// fuzzBound is the model's answer to an ordered query: the largest
// (wantMax) or smallest model key satisfying pred, and its value.
func fuzzBound(model map[int64]int64, pred func(int64) bool, wantMax bool) (int64, int64, bool) {
	var wk int64
	wok := false
	for mk := range model {
		if !pred(mk) {
			continue
		}
		if !wok || (wantMax && mk > wk) || (!wantMax && mk < wk) {
			wk, wok = mk, true
		}
	}
	return wk, model[wk], wok
}

func modelPairs(model map[int64]int64, lo, hi int64) []skiphash.Pair[int64, int64] {
	var out []skiphash.Pair[int64, int64]
	for k, v := range model {
		if k >= lo && k <= hi {
			out = append(out, skiphash.Pair[int64, int64]{Key: k, Val: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
