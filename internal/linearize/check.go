package linearize

import (
	"encoding/binary"
	"sort"
)

// Options tunes a check.
type Options struct {
	// Budget caps the number of search steps per partition; 0 selects
	// DefaultBudget. An exhausted budget yields Unknown, not a verdict.
	Budget int
	// Initial is the map's contents at the start of the history
	// (quiescent), for checking windows of a longer run.
	Initial []KV
}

// DefaultBudget is the per-partition search-step cap.
const DefaultBudget = 4 << 20

// Result is a check's outcome.
type Result struct {
	// Ok reports the history was proved linearizable.
	Ok bool
	// Unknown reports the search budget ran out before a verdict; Ok is
	// false but the history was not proved non-linearizable.
	Unknown bool
	// PartitionKeys is the key set of the offending (or exhausted)
	// partition.
	PartitionKeys []int64
	// Ops holds the offending partition's operations.
	Ops []Op
}

// Check reports whether the history is linearizable with respect to
// the sequential ordered-map specification, starting from an empty map.
func Check(ops []Op) Result { return CheckOpts(ops, Options{}) }

// CheckOpts is Check with options.
func CheckOpts(ops []Op, opt Options) Result {
	budget := opt.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}

	// The key universe: every key that any write could have put in the
	// map plus every key an output claims to have seen.
	universe := make(map[int64]struct{})
	addKey := func(k int64) { universe[k] = struct{}{} }
	for i := range opt.Initial {
		addKey(opt.Initial[i].Key)
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case Insert, Remove, Lookup, Put:
			addKey(op.Key)
		case Batch:
			for _, s := range op.Steps {
				addKey(s.Key)
			}
		case Ceil, Floor, Succ, Pred:
			if op.Ok {
				addKey(op.OutKey)
			}
		case Range:
			for _, p := range op.Pairs {
				addKey(p.Key)
			}
		}
	}
	keys := make([]int64, 0, len(universe))
	for k := range universe {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// Union-find over the universe; every multi-key operation fuses the
	// partitions of its footprint.
	uf := newUnionFind(keys)
	footprints := make([][]int64, len(ops))
	for i := range ops {
		fp := footprint(&ops[i], keys)
		footprints[i] = fp
		for j := 1; j < len(fp); j++ {
			uf.union(fp[0], fp[j])
		}
	}

	// Bucket operations (and initial pairs) by partition root.
	partOps := make(map[int64][]Op)
	partInit := make(map[int64][]KV)
	for i := range ops {
		fp := footprints[i]
		if len(fp) == 0 {
			// No key this operation could have observed: its output must
			// be the empty answer.
			if !emptyAnswerOK(&ops[i]) {
				return Result{Ok: false, Ops: []Op{ops[i]}}
			}
			continue
		}
		root := uf.find(fp[0])
		partOps[root] = append(partOps[root], ops[i])
	}
	for _, p := range opt.Initial {
		root := uf.find(p.Key)
		partInit[root] = append(partInit[root], p)
	}

	roots := make([]int64, 0, len(partOps))
	for r := range partOps {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })

	var unknown *Result
	for _, root := range roots {
		sub := partOps[root]
		init := make(map[int64]int64, len(partInit[root]))
		for _, p := range partInit[root] {
			init[p.Key] = p.Val
		}
		ok, exhausted := wgl(sub, init, budget)
		if ok {
			continue
		}
		res := Result{
			Ok:            false,
			Unknown:       exhausted,
			PartitionKeys: uf.members(root),
			Ops:           sub,
		}
		if !exhausted {
			return res
		}
		if unknown == nil {
			unknown = &res
		}
	}
	if unknown != nil {
		return *unknown
	}
	return Result{Ok: true}
}

// footprint lists the universe keys an operation's result can depend
// on, in no particular order (first element is used as the union-find
// anchor).
func footprint(op *Op, universe []int64) []int64 {
	switch op.Kind {
	case Insert, Remove, Lookup, Put:
		return []int64{op.Key}
	case Batch:
		fp := make([]int64, 0, len(op.Steps))
		for _, s := range op.Steps {
			fp = append(fp, s.Key)
		}
		return fp
	case Range:
		lo := sort.Search(len(universe), func(i int) bool { return universe[i] >= op.Lo })
		hi := sort.Search(len(universe), func(i int) bool { return universe[i] > op.Hi })
		fp := append([]int64(nil), universe[lo:hi]...)
		for _, p := range op.Pairs {
			if p.Key < op.Lo || p.Key > op.Hi {
				fp = append(fp, p.Key)
			}
		}
		return fp
	case Ceil:
		return tailKeys(universe, op.Key, true, op)
	case Succ:
		return tailKeys(universe, op.Key, false, op)
	case Floor:
		return headKeys(universe, op.Key, true, op)
	case Pred:
		return headKeys(universe, op.Key, false, op)
	}
	return nil
}

// tailKeys returns the universe keys >= k (or > k when !incl), plus
// the op's claimed output key.
func tailKeys(universe []int64, k int64, incl bool, op *Op) []int64 {
	i := sort.Search(len(universe), func(i int) bool {
		if incl {
			return universe[i] >= k
		}
		return universe[i] > k
	})
	fp := append([]int64(nil), universe[i:]...)
	return addOutKey(fp, op)
}

// headKeys returns the universe keys <= k (or < k when !incl), plus
// the op's claimed output key.
func headKeys(universe []int64, k int64, incl bool, op *Op) []int64 {
	i := sort.Search(len(universe), func(i int) bool {
		if incl {
			return universe[i] > k
		}
		return universe[i] >= k
	})
	fp := append([]int64(nil), universe[:i]...)
	return addOutKey(fp, op)
}

func addOutKey(fp []int64, op *Op) []int64 {
	if !op.Ok {
		return fp
	}
	for _, k := range fp {
		if k == op.OutKey {
			return fp
		}
	}
	return append(fp, op.OutKey)
}

// emptyAnswerOK checks an operation whose footprint is empty: no key it
// could observe ever existed, so only the empty answer is correct.
func emptyAnswerOK(op *Op) bool {
	switch op.Kind {
	case Ceil, Floor, Succ, Pred:
		return !op.Ok
	case Range:
		return len(op.Pairs) == 0
	case Batch:
		return len(op.Steps) == 0
	}
	return false
}

// unionFind is a basic disjoint-set forest over int64 keys.
type unionFind struct {
	parent map[int64]int64
}

func newUnionFind(keys []int64) *unionFind {
	p := make(map[int64]int64, len(keys))
	for _, k := range keys {
		p[k] = k
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(k int64) int64 {
	for u.parent[k] != k {
		u.parent[k] = u.parent[u.parent[k]]
		k = u.parent[k]
	}
	return k
}

func (u *unionFind) union(a, b int64) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[rb] = ra
	}
}

func (u *unionFind) members(root int64) []int64 {
	var out []int64
	for k := range u.parent {
		if u.find(k) == root {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// event is one call or return in the doubly linked search list.
type event struct {
	op         int
	match      *event // return node for a call; nil for a return
	prev, next *event
}

// wgl runs the Wing & Gong search with Lowe's memoization over one
// partition. It reports (linearizable, budgetExhausted).
func wgl(ops []Op, initial map[int64]int64, budget int) (bool, bool) {
	n := len(ops)
	if n == 0 {
		return true, false
	}

	// Build the time-sorted event list under a head sentinel.
	type stamped struct {
		t    int64
		op   int
		call bool
	}
	evs := make([]stamped, 0, 2*n)
	for i := range ops {
		evs = append(evs, stamped{t: ops[i].Call, op: i, call: true})
		evs = append(evs, stamped{t: ops[i].Return, op: i, call: false})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	head := &event{op: -1}
	cur := head
	returns := make(map[int]*event, n)
	calls := make(map[int]*event, n)
	for _, e := range evs {
		node := &event{op: e.op}
		if e.call {
			calls[e.op] = node
		} else {
			returns[e.op] = node
		}
		node.prev = cur
		cur.next = node
		cur = node
	}
	for i := range ops {
		calls[i].match = returns[i]
	}

	lift := func(e *event) {
		e.prev.next = e.next
		if e.next != nil {
			e.next.prev = e.prev
		}
		m := e.match
		m.prev.next = m.next
		if m.next != nil {
			m.next.prev = m.prev
		}
	}
	unlift := func(e *event) {
		m := e.match
		m.prev.next = m
		if m.next != nil {
			m.next.prev = m
		}
		e.prev.next = e
		if e.next != nil {
			e.next.prev = e
		}
	}

	words := (n + 63) / 64
	linearized := make([]uint64, words)
	cache := make(map[string]struct{})
	cacheKey := func(st map[int64]int64) string {
		buf := make([]byte, 0, 8*words+16*len(st))
		for _, w := range linearized {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		ks := make([]int64, 0, len(st))
		for k := range st {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		for _, k := range ks {
			buf = binary.AppendVarint(buf, k)
			buf = binary.AppendVarint(buf, st[k])
		}
		return string(buf)
	}

	type frame struct {
		e  *event
		st map[int64]int64
	}
	var stack []frame
	state := initial
	entry := head.next
	remaining := n

	for remaining > 0 {
		if budget--; budget < 0 {
			return false, true
		}
		if entry == nil {
			// Dead end: the first pending operation could not be
			// linearized anywhere before its return. Backtrack.
			if len(stack) == 0 {
				return false, false
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			unlift(f.e)
			linearized[f.e.op/64] &^= 1 << (uint(f.e.op) % 64)
			state = f.st
			remaining++
			entry = f.e.next
			continue
		}
		if entry.match == nil {
			// Reached a return before linearizing its call: every order
			// for the current prefix is exhausted. Treat as dead end.
			entry = nil
			continue
		}
		newState, outOK := apply(state, &ops[entry.op])
		if outOK {
			linearized[entry.op/64] |= 1 << (uint(entry.op) % 64)
			key := cacheKey(newState)
			if _, seen := cache[key]; !seen {
				cache[key] = struct{}{}
				stack = append(stack, frame{e: entry, st: state})
				state = newState
				lift(entry)
				remaining--
				entry = head.next
				continue
			}
			linearized[entry.op/64] &^= 1 << (uint(entry.op) % 64)
		}
		entry = entry.next
	}
	return true, false
}

// apply runs op against st, reporting whether the recorded outputs
// match the sequential specification. st is never mutated; writes
// return a fresh map.
func apply(st map[int64]int64, op *Op) (map[int64]int64, bool) {
	switch op.Kind {
	case Insert:
		_, present := st[op.Key]
		if op.Ok == present {
			return nil, false
		}
		if !present {
			st = cloneState(st)
			st[op.Key] = op.Val
		}
		return st, true
	case Remove:
		_, present := st[op.Key]
		if op.Ok != present {
			return nil, false
		}
		if present {
			st = cloneState(st)
			delete(st, op.Key)
		}
		return st, true
	case Put:
		_, present := st[op.Key]
		if op.Ok != present {
			return nil, false
		}
		st = cloneState(st)
		st[op.Key] = op.Val
		return st, true
	case Lookup:
		v, present := st[op.Key]
		if op.Ok != present || (present && v != op.OutVal) {
			return nil, false
		}
		return st, true
	case Ceil:
		return st, checkBound(st, op, func(k int64) bool { return k >= op.Key }, false)
	case Succ:
		return st, checkBound(st, op, func(k int64) bool { return k > op.Key }, false)
	case Floor:
		return st, checkBound(st, op, func(k int64) bool { return k <= op.Key }, true)
	case Pred:
		return st, checkBound(st, op, func(k int64) bool { return k < op.Key }, true)
	case Range:
		want := make([]KV, 0, len(op.Pairs))
		ks := make([]int64, 0, len(st))
		for k := range st {
			if k >= op.Lo && k <= op.Hi {
				ks = append(ks, k)
			}
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		for _, k := range ks {
			want = append(want, KV{Key: k, Val: st[k]})
		}
		if len(want) != len(op.Pairs) {
			return nil, false
		}
		for i := range want {
			if want[i] != op.Pairs[i] {
				return nil, false
			}
		}
		return st, true
	case Batch:
		cur := st
		cloned := false
		for i := range op.Steps {
			s := &op.Steps[i]
			switch s.Kind {
			case Insert:
				_, present := cur[s.Key]
				if s.Ok == present {
					return nil, false
				}
				if !present {
					if !cloned {
						cur, cloned = cloneState(cur), true
					}
					cur[s.Key] = s.Val
				}
			case Remove:
				_, present := cur[s.Key]
				if s.Ok != present {
					return nil, false
				}
				if present {
					if !cloned {
						cur, cloned = cloneState(cur), true
					}
					delete(cur, s.Key)
				}
			case Lookup:
				v, present := cur[s.Key]
				if s.Ok != present || (present && v != s.Out) {
					return nil, false
				}
			default:
				return nil, false
			}
		}
		return cur, true
	}
	return nil, false
}

// checkBound verifies a point query's output against the best key
// satisfying pred (largest when wantMax, else smallest).
func checkBound(st map[int64]int64, op *Op, pred func(int64) bool, wantMax bool) bool {
	var best int64
	found := false
	for k := range st {
		if !pred(k) {
			continue
		}
		if !found || (wantMax && k > best) || (!wantMax && k < best) {
			best, found = k, true
		}
	}
	if op.Ok != found {
		return false
	}
	if !found {
		return true
	}
	return op.OutKey == best && op.OutVal == st[best]
}

func cloneState(st map[int64]int64) map[int64]int64 {
	out := make(map[int64]int64, len(st)+1)
	for k, v := range st {
		out[k] = v
	}
	return out
}
