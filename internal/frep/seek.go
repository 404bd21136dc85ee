package frep

// Ranked direct access for the arena enumerators: Seek(k) positions a
// fresh enumerator so that the next Next yields the k-th tuple of the
// enumeration stream — exactly what Skip(k) reaches, but by descending
// subtree counts instead of stepping the odometer k times.
//
// The odometer's slots are nested loops in a fixed order. Fixing the
// positions of slots 0..i−1 factors the remaining assignments as
// (choices within slot i's subtree) × Π over the other "open" slots —
// slots whose driving union is already determined (their parent slot is
// fixed, or they are root loops). So the k-th tuple is found one slot
// at a time: at slot i, divide the remaining offset by the product of
// the open co-slot counts to get the offset q within slot i's own
// stream, then find the value position whose cumulative weight spans q.
// With the ranked index (ranks.go) both the counts and the cumulative
// search are O(1)/O(log fanout); without it, counts fall back to a
// memoized recursion over (slot, node) pairs and the search to a linear
// scan — still far cheaper than stepping tuple by tuple for large k.

import "math"

// seekState is the per-enumerator structure for ranked direct access,
// built once on first use.
type seekState struct {
	// childSlots[i] lists the slots whose parentSlot is i.
	childSlots [][]int
	// structOK[i] reports that slot i's subtree is structurally complete:
	// the enumeration loops over every f-tree child of its node,
	// recursively. Only then does the store's ranked weight of a value —
	// which counts all kid subtrees — equal the number of enumeration
	// steps beneath it. It holds everywhere for full tuple enumeration;
	// group enumeration breaks it where aggregation parts hang.
	structOK []bool
	// memo caches unranked subtree counts by (slot<<32 | node).
	memo map[uint64]uint64
}

// satCount is the saturation value of the fallback counting arithmetic.
// Ranked totals are capped far below it (maxRankTotal), and Seek only
// ever divides by — never descends into — a saturated product.
const satCount = math.MaxUint64

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > satCount/b {
		return satCount
	}
	return a * b
}

func satAdd(a, b uint64) uint64 {
	if a > satCount-b {
		return satCount
	}
	return a + b
}

// seekInit builds (once) the seek structure for the enumerator.
func (e *StoreEnumerator) seekInit() *seekState {
	if e.seekst != nil {
		return e.seekst
	}
	m := len(e.slots)
	ss := &seekState{
		childSlots: make([][]int, m),
		structOK:   make([]bool, m),
		memo:       make(map[uint64]uint64),
	}
	for i := 1; i < m; i++ {
		if p := e.slots[i].parentSlot; p >= 0 {
			ss.childSlots[p] = append(ss.childSlots[p], i)
		}
	}
	for i := m - 1; i >= 0; i-- { // children have larger indices
		ok := len(ss.childSlots[i]) == len(e.slots[i].node.Children)
		for _, c := range ss.childSlots[i] {
			ok = ok && ss.structOK[c]
		}
		ss.structOK[i] = ok
	}
	e.seekst = ss
	return ss
}

// countSlot returns the number of enumeration steps slot i contributes
// when driven by union id: the tuple count of id's subtree restricted
// to the slots actually enumerated below i. Saturating.
func (e *StoreEnumerator) countSlot(ss *seekState, i int, id NodeID) uint64 {
	if ss.structOK[i] {
		if t, ok := e.store.windowTuples(id, 0, e.store.Len(id)); ok {
			return t
		}
	}
	key := uint64(i)<<32 | uint64(uint32(id))
	if t, ok := ss.memo[key]; ok {
		return t
	}
	n := e.store.Len(id)
	var total uint64
	if len(ss.childSlots[i]) == 0 {
		total = uint64(n)
	} else {
		for v := 0; v < n; v++ {
			total = satAdd(total, e.valWeight(ss, i, id, v))
		}
	}
	ss.memo[key] = total
	return total
}

// valWeight returns the number of enumeration steps beneath value v of
// slot i's union id (1 for a slot with no enumerated children).
func (e *StoreEnumerator) valWeight(ss *seekState, i int, id NodeID, v int) uint64 {
	w := uint64(1)
	for _, c := range ss.childSlots[i] {
		w = satMul(w, e.countSlot(ss, c, e.store.Kid(id, v, e.slots[c].childIdx)))
		if w == 0 {
			break
		}
	}
	return w
}

// slotWindowCount is countSlot restricted to value window [lo, hi) of
// the driving union (the Restrict window of slot 0).
func (e *StoreEnumerator) slotWindowCount(ss *seekState, i int, id NodeID, lo, hi int) uint64 {
	if lo <= 0 && hi >= e.store.Len(id) {
		return e.countSlot(ss, i, id)
	}
	if ss.structOK[i] {
		if t, ok := e.store.windowTuples(id, lo, hi); ok {
			return t
		}
	}
	if len(ss.childSlots[i]) == 0 {
		if hi <= lo {
			return 0
		}
		return uint64(hi - lo)
	}
	var total uint64
	for v := lo; v < hi; v++ {
		total = satAdd(total, e.valWeight(ss, i, id, v))
	}
	return total
}

// slotUnion resolves the union driving slot i from the current (partial)
// odometer state; the caller guarantees the slot's parent, if any, is
// already positioned.
func (e *StoreEnumerator) slotUnion(i int) NodeID {
	s := &e.slots[i]
	if s.parentSlot < 0 {
		return e.roots[s.rootIdx]
	}
	p := &e.slots[s.parentSlot]
	return e.store.Kid(p.id, p.pos, s.childIdx)
}

// seekTotal counts the tuples of the whole enumeration stream
// (respecting a Restrict window), saturating.
func (e *StoreEnumerator) seekTotal(ss *seekState) uint64 {
	total := uint64(1)
	for i := range e.slots {
		if e.slots[i].parentSlot >= 0 {
			continue // counted inside its root slot's subtree
		}
		id := e.roots[e.slots[i].rootIdx]
		lo, hi := 0, e.store.Len(id)
		if i == 0 && e.restricted {
			lo, hi = e.clampWindow(hi)
		}
		total = satMul(total, e.slotWindowCount(ss, i, id, lo, hi))
	}
	return total
}

// Total returns the number of tuples the enumeration yields from a
// fresh start (respecting a Restrict window), without advancing the
// enumerator. Counts beyond MaxInt64 saturate.
func (e *StoreEnumerator) Total() int64 {
	if len(e.slots) == 0 {
		return 1 // the single empty tuple
	}
	t := e.seekTotal(e.seekInit())
	if t > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(t)
}

// SeekRanked reports whether Seek (and Total) on this enumerator runs
// entirely on the ranked index — O(depth × log fanout) per call — as
// opposed to the memoized counting fallback.
func (e *StoreEnumerator) SeekRanked() bool {
	ss := e.seekInit()
	for i := range e.slots {
		if !ss.structOK[i] {
			return false
		}
		if e.slots[i].parentSlot < 0 && !e.store.NodeRanked(e.roots[e.slots[i].rootIdx]) {
			return false
		}
	}
	return true
}

// Seek positions a fresh enumerator so that the following Next yields
// tuple k (0-based) of the stream, returning min(k, total) — the same
// state and return Skip(k) would produce, reached by descending subtree
// counts. k past the end exhausts the enumerator and returns the total.
// On an already-started enumerator Seek degrades to the relative
// linear Skip(k).
func (e *StoreEnumerator) Seek(k int) int {
	if e.done {
		return 0
	}
	if e.started {
		return e.Skip(k)
	}
	if k <= 0 {
		return 0
	}
	if len(e.slots) == 0 {
		// Loop-free enumeration yields exactly one empty tuple; skipping
		// one (or more) consumes it.
		e.started = true
		return 1
	}
	ss := e.seekInit()
	total := e.seekTotal(ss)
	if uint64(k) >= total {
		e.started, e.done = true, true
		return int(total) // total ≤ k ≤ MaxInt, so the int conversion is exact
	}
	// Skip(k) leaves the odometer ON tuple k−1 (consumed), so the next
	// advance lands on tuple k. Descend to tuple k−1.
	remaining := uint64(k) - 1
	for i := range e.slots {
		s := &e.slots[i]
		s.id = e.slotUnion(i)
		s.vals = e.store.Vals(s.id)
		lo, hi := 0, len(s.vals)
		if i == 0 && e.restricted {
			lo, hi = e.clampWindow(hi)
		}
		// tail: product of the counts of the other open slots — loops at
		// deeper indices whose driving union is already fixed. remaining
		// < slotCount(i) × tail, so q = remaining/tail indexes into slot
		// i's own stream (a saturated tail forces q = 0, never descending
		// into a saturated subtree).
		tail := uint64(1)
		for j := i + 1; j < len(e.slots); j++ {
			if e.slots[j].parentSlot >= i {
				continue // part of slot i's subtree (or deeper): not open yet
			}
			tail = satMul(tail, e.countSlot(ss, j, e.slotUnion(j)))
		}
		var q uint64
		if tail > 0 {
			q = remaining / tail
		}
		pos, before := e.seekSlotValue(ss, i, s.id, lo, hi, q, s.desc)
		s.pos = pos
		if consumed := satMul(before, tail); consumed <= remaining {
			remaining -= consumed
		} else {
			remaining = 0 // defensive: cannot happen on a consistent index
		}
	}
	e.started = true
	return k
}

// seekSlotValue finds the value position of slot i (union id, window
// [lo, hi), in iteration order) containing local offset q, returning
// the position and the weight preceding it in iteration order.
func (e *StoreEnumerator) seekSlotValue(ss *seekState, i int, id NodeID, lo, hi int, q uint64, desc bool) (int, uint64) {
	if ss.structOK[i] && e.store.NodeRanked(id) {
		return e.store.rankSeek(id, lo, hi, q, desc)
	}
	var cum uint64
	if desc {
		for v := hi - 1; v > lo; v-- {
			w := e.valWeight(ss, i, id, v)
			if satAdd(cum, w) > q {
				return v, cum
			}
			cum = satAdd(cum, w)
		}
		return lo, cum
	}
	for v := lo; v < hi-1; v++ {
		w := e.valWeight(ss, i, id, v)
		if satAdd(cum, w) > q {
			return v, cum
		}
		cum = satAdd(cum, w)
	}
	return hi - 1, cum
}

// WeightedSegments returns up to p Restrict windows over the outermost
// loop's value space, balanced by result weight using the ranked index —
// so a skewed hot value no longer lands p−1 workers with empty windows.
// It returns nil when the enumerator has no root-driven outer loop, the
// outer subtree is not fully enumerated, or the root union is unranked;
// callers then fall back to uniform Segments.
func (e *StoreEnumerator) WeightedSegments(p int) [][2]int {
	if len(e.slots) == 0 || e.slots[0].parentSlot >= 0 {
		return nil
	}
	ss := e.seekInit()
	if !ss.structOK[0] {
		return nil
	}
	root := e.roots[e.slots[0].rootIdx]
	if !e.store.NodeRanked(root) {
		return nil
	}
	return WeightedSegments(e.store, root, p)
}

// Total returns the number of groups the grouped enumeration yields
// from a fresh start; see StoreEnumerator.Total.
func (g *StoreGroupEnumerator) Total() int64 {
	if len(g.inner.slots) == 0 {
		return 1 // global aggregate: exactly one pseudo-group
	}
	return g.inner.Total()
}

// SeekRanked reports whether group Seek runs on the ranked index; see
// StoreEnumerator.SeekRanked.
func (g *StoreGroupEnumerator) SeekRanked() bool {
	if len(g.inner.slots) == 0 {
		return true
	}
	return g.inner.SeekRanked()
}

// Seek positions the grouped enumerator so that the following Next
// yields group k, exactly as Skip(k) would; see StoreEnumerator.Seek.
func (g *StoreGroupEnumerator) Seek(k int) int {
	if len(g.inner.slots) == 0 {
		return g.Skip(k) // the single pseudo-group: Skip is already O(1)
	}
	return g.inner.Seek(k)
}
