package linearize

import (
	"strings"
	"testing"
)

// seqOps builds a strictly sequential history from a compact op list.
func seqOps(ops []Op) []Op {
	t := int64(0)
	for i := range ops {
		t++
		ops[i].Call = t
		t++
		ops[i].Return = t
	}
	return ops
}

func TestSequentialValidHistory(t *testing.T) {
	h := seqOps([]Op{
		{Kind: Insert, Key: 1, Val: 10, Ok: true},
		{Kind: Insert, Key: 1, Val: 11, Ok: false},
		{Kind: Lookup, Key: 1, Ok: true, OutVal: 10},
		{Kind: Remove, Key: 1, Ok: true},
		{Kind: Lookup, Key: 1, Ok: false},
		{Kind: Remove, Key: 1, Ok: false},
	})
	if res := Check(h); !res.Ok {
		t.Fatalf("valid sequential history rejected:\n%s", FormatOps(res.Ops))
	}
}

func TestSequentialInvalidHistories(t *testing.T) {
	cases := []struct {
		name string
		h    []Op
	}{
		{"duplicate insert both succeed", seqOps([]Op{
			{Kind: Insert, Key: 1, Val: 10, Ok: true},
			{Kind: Insert, Key: 1, Val: 11, Ok: true},
		})},
		{"lookup misses present key", seqOps([]Op{
			{Kind: Insert, Key: 1, Val: 10, Ok: true},
			{Kind: Lookup, Key: 1, Ok: false},
		})},
		{"lookup returns stale value", seqOps([]Op{
			{Kind: Insert, Key: 1, Val: 10, Ok: true},
			{Kind: Remove, Key: 1, Ok: true},
			{Kind: Insert, Key: 1, Val: 20, Ok: true},
			{Kind: Lookup, Key: 1, Ok: true, OutVal: 10},
		})},
		{"remove of absent key succeeds", seqOps([]Op{
			{Kind: Remove, Key: 5, Ok: true},
		})},
		{"range misses a stable key", seqOps([]Op{
			{Kind: Insert, Key: 1, Val: 10, Ok: true},
			{Kind: Insert, Key: 2, Val: 20, Ok: true},
			{Kind: Range, Lo: 0, Hi: 9, Pairs: []KV{{Key: 1, Val: 10}}},
		})},
		{"ceil skips a closer key", seqOps([]Op{
			{Kind: Insert, Key: 3, Val: 30, Ok: true},
			{Kind: Insert, Key: 7, Val: 70, Ok: true},
			{Kind: Ceil, Key: 2, Ok: true, OutKey: 7, OutVal: 70},
		})},
		{"phantom point query", seqOps([]Op{
			{Kind: Succ, Key: 0, Ok: true, OutKey: 9, OutVal: 90},
		})},
		{"put reports a replacement on an absent key", seqOps([]Op{
			{Kind: Put, Key: 1, Val: 10, Ok: true},
		})},
		{"put reports a fresh key on a present one", seqOps([]Op{
			{Kind: Insert, Key: 1, Val: 10, Ok: true},
			{Kind: Put, Key: 1, Val: 11, Ok: false},
		})},
		{"lookup misses a put's value", seqOps([]Op{
			{Kind: Insert, Key: 1, Val: 10, Ok: true},
			{Kind: Put, Key: 1, Val: 11, Ok: true},
			{Kind: Lookup, Key: 1, Ok: true, OutVal: 10},
		})},
		{"batch not applied", seqOps([]Op{
			{Kind: Batch, Steps: []Step{
				{Kind: Insert, Key: 1, Val: 10, Ok: true},
				{Kind: Insert, Key: 2, Val: 20, Ok: true},
			}},
			{Kind: Lookup, Key: 2, Ok: false},
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if res := Check(tc.h); res.Ok || res.Unknown {
				t.Fatalf("invalid history accepted (ok=%v unknown=%v)", res.Ok, res.Unknown)
			}
		})
	}
}

// TestPutSpec pins Put's sequential specification: set Key to Val,
// reporting whether a value was replaced, whatever was there before.
func TestPutSpec(t *testing.T) {
	h := seqOps([]Op{
		{Kind: Put, Key: 1, Val: 10, Ok: false},
		{Kind: Put, Key: 1, Val: 11, Ok: true},
		{Kind: Lookup, Key: 1, Ok: true, OutVal: 11},
		{Kind: Insert, Key: 1, Val: 12, Ok: false},
		{Kind: Remove, Key: 1, Ok: true},
		{Kind: Put, Key: 1, Val: 13, Ok: false},
		{Kind: Range, Lo: 0, Hi: 9, Pairs: []KV{{Key: 1, Val: 13}}},
	})
	if res := Check(h); !res.Ok {
		t.Fatalf("valid Put history rejected:\n%s", FormatOps(res.Ops))
	}
	// Two overlapping Puts on an absent key: exactly one finds it absent,
	// and the later one in the chosen order decides the value.
	h = []Op{
		{Client: 0, Kind: Put, Key: 1, Val: 10, Ok: false, Call: 1, Return: 5},
		{Client: 1, Kind: Put, Key: 1, Val: 20, Ok: true, Call: 2, Return: 6},
		{Client: 0, Kind: Lookup, Key: 1, Ok: true, OutVal: 20, Call: 7, Return: 8},
	}
	if res := Check(h); !res.Ok {
		t.Fatalf("legal Put/Put race rejected:\n%s", FormatOps(res.Ops))
	}
	h[2].OutVal = 10
	if res := Check(h); res.Ok {
		t.Fatal("lookup of the overwritten Put's value accepted")
	}
	h[1].Ok = false
	h[2].OutVal = 20
	if res := Check(h); res.Ok {
		t.Fatal("two Puts that both found the key absent accepted")
	}
}

func TestConcurrentReorderingAccepted(t *testing.T) {
	// Insert and Lookup overlap: the lookup may legally see either the
	// old absence or the new pair.
	for _, lookupOk := range []bool{true, false} {
		h := []Op{
			{Client: 0, Kind: Insert, Key: 1, Val: 10, Ok: true, Call: 1, Return: 5},
			{Client: 1, Kind: Lookup, Key: 1, Ok: lookupOk, OutVal: 10, Call: 2, Return: 4},
		}
		if res := Check(h); !res.Ok {
			t.Fatalf("overlapping lookup (ok=%v) rejected:\n%s", lookupOk, FormatOps(res.Ops))
		}
	}
}

func TestRealTimeOrderEnforced(t *testing.T) {
	// The lookup BEGINS after the insert RETURNED, so absence is no
	// longer a legal answer.
	h := []Op{
		{Client: 0, Kind: Insert, Key: 1, Val: 10, Ok: true, Call: 1, Return: 2},
		{Client: 1, Kind: Lookup, Key: 1, Ok: false, Call: 3, Return: 4},
	}
	if res := Check(h); res.Ok {
		t.Fatal("real-time violation accepted")
	}
}

func TestConcurrentWriteWriteRace(t *testing.T) {
	// Two overlapping inserts on one key: exactly one may succeed ...
	h := []Op{
		{Client: 0, Kind: Insert, Key: 1, Val: 10, Ok: true, Call: 1, Return: 5},
		{Client: 1, Kind: Insert, Key: 1, Val: 20, Ok: false, Call: 2, Return: 6},
		{Client: 0, Kind: Lookup, Key: 1, Ok: true, OutVal: 10, Call: 7, Return: 8},
	}
	if res := Check(h); !res.Ok {
		t.Fatalf("legal write/write race rejected:\n%s", FormatOps(res.Ops))
	}
	// ... and the surviving value must be the winner's.
	h[2].OutVal = 20
	if res := Check(h); res.Ok {
		t.Fatal("lookup of the losing insert's value accepted")
	}
}

func TestRangeSnapshotAtomicity(t *testing.T) {
	// A range overlapping a batch that moves 1 -> 2 must see the pair
	// on exactly one side, never both or neither.
	base := []Op{
		{Client: 0, Kind: Insert, Key: 1, Val: 10, Ok: true, Call: 1, Return: 2},
		{Client: 0, Kind: Batch, Call: 4, Return: 8, Steps: []Step{
			{Kind: Remove, Key: 1, Ok: true},
			{Kind: Insert, Key: 2, Val: 10, Ok: true},
		}},
	}
	for _, tc := range []struct {
		name  string
		pairs []KV
		want  bool
	}{
		{"before", []KV{{Key: 1, Val: 10}}, true},
		{"after", []KV{{Key: 2, Val: 10}}, true},
		{"both", []KV{{Key: 1, Val: 10}, {Key: 2, Val: 10}}, false},
		{"neither", nil, false},
	} {
		h := append(append([]Op(nil), base...),
			Op{Client: 1, Kind: Range, Lo: 0, Hi: 9, Pairs: tc.pairs, Call: 5, Return: 7})
		if res := Check(h); res.Ok != tc.want {
			t.Errorf("%s: ok=%v want %v", tc.name, res.Ok, tc.want)
		}
	}
}

func TestPerKeyPartitioning(t *testing.T) {
	// Disjoint keys check independently: an impossible cross-key order
	// is fine as long as each key's subhistory linearizes. 130 ops on
	// 13 keys stays fast because no multi-key op fuses partitions.
	var h []Op
	tm := int64(0)
	for i := 0; i < 130; i++ {
		k := int64(i % 13)
		tm++
		call := tm
		tm++
		h = append(h, Op{Kind: Insert, Key: k, Val: k, Ok: i < 13, Call: call, Return: tm})
	}
	if res := Check(h); !res.Ok {
		t.Fatalf("partitioned history rejected:\n%s", FormatOps(res.Ops))
	}
}

func TestInitialState(t *testing.T) {
	h := seqOps([]Op{
		{Kind: Lookup, Key: 1, Ok: true, OutVal: 10},
		{Kind: Remove, Key: 2, Ok: true},
		{Kind: Range, Lo: 0, Hi: 9, Pairs: []KV{{Key: 1, Val: 10}}},
	})
	res := CheckOpts(h, Options{Initial: []KV{{Key: 1, Val: 10}, {Key: 2, Val: 20}}})
	if !res.Ok {
		t.Fatalf("history valid from initial state rejected:\n%s", FormatOps(res.Ops))
	}
	if res := Check(h); res.Ok {
		t.Fatal("same history from empty state accepted")
	}
}

func TestBudgetYieldsUnknown(t *testing.T) {
	// A pile of overlapping same-key ops with a one-step budget cannot
	// be decided.
	var h []Op
	for i := 0; i < 8; i++ {
		h = append(h, Op{Client: i, Kind: Insert, Key: 1, Val: int64(i), Ok: i == 0, Call: int64(i + 1), Return: int64(100 + i)})
	}
	res := CheckOpts(h, Options{Budget: 1})
	if res.Ok || !res.Unknown {
		t.Fatalf("budget-starved check: ok=%v unknown=%v, want undecided", res.Ok, res.Unknown)
	}
}

func TestFormatOps(t *testing.T) {
	h := seqOps([]Op{
		{Kind: Insert, Key: 1, Val: 10, Ok: true},
		{Kind: Range, Lo: 0, Hi: 5, Pairs: []KV{{Key: 1, Val: 10}}},
	})
	out := FormatOps(h)
	for _, want := range []string{"Insert(1,10) -> true", "Range[0,5] -> {1:10}"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatOps output missing %q:\n%s", want, out)
		}
	}
}
