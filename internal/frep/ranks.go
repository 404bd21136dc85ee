package frep

// The ranked index: per-value subtree tuple counts stored as a fourth
// arena section. For every value a of the value slab that belongs to
// some union node, let W(a) be the number of flat tuples represented by
// that value together with its kid subtrees (the product of the kids'
// totals, or 1 for a leaf value). The index stores the running prefix
// sum ranks[a] = Σ_{a' ≤ a} W(a') over the whole slab, so any node's
// total — and any contiguous value window's total — is one subtraction,
// and "which value contains the q-th tuple" is a binary search. This is
// the precomputation behind ranked direct access (Seek), O(1) COUNT(*),
// O(1) γ and grouped counts over count-only subtrees (the evaluator in
// agg.go), and weighted parallel splits.
//
// The index is a prefix property: a store built and ranked once may keep
// appending nodes (operators derive new representations by appending);
// the ranks over the original prefix stay valid, and nodes whose value
// and kid windows lie inside the ranked prefix keep answering in O(1).
// rankedKids records the kid-slab length covered when the index was
// built: a node whose kid window lies below it was appended before the
// index was computed, so all its kid references resolve to nodes whose
// own windows are inside the ranked prefix.

import (
	"fmt"
	"math/bits"
	"sort"
)

// maxRankTotal caps any prefix sum of the ranked index. Totals beyond
// 2⁶² tuples cannot be enumerated anyway; the cap keeps every window
// subtraction and every Seek product comfortably inside uint64.
const maxRankTotal = uint64(1) << 62

// rankOwner resolves the store holding the rank slab: overlays read
// their base's index (overlays never build ranks of their own, and the
// base is not appended to while overlays live).
func (s *Store) rankOwner() *Store {
	if s.base != nil {
		return s.base
	}
	return s
}

// HasRanks reports whether the ranked index covers the store's entire
// current contents (every value and kid slab entry). Appending nodes
// after BuildRanks clears this without invalidating the ranked prefix.
func (s *Store) HasRanks() bool {
	if s.base != nil {
		return false
	}
	return len(s.ranks) == len(s.vals) && int(s.rankedKids) == len(s.kids)
}

// NodeRanked reports whether union id is covered by the ranked index:
// its value window lies inside the ranked prefix and its kid window
// inside the kid-slab prefix recorded at BuildRanks time (which, by
// construction, means every node reachable from it is covered too).
func (s *Store) NodeRanked(id NodeID) bool {
	o := s.rankOwner()
	h := s.hdr(id)
	if uint64(h.valOff)+uint64(h.nVals) > uint64(len(o.ranks)) {
		return false
	}
	if nk := uint64(h.nVals) * uint64(h.arity); nk > 0 {
		if uint64(h.kidOff)+nk > uint64(o.rankedKids) {
			return false
		}
	}
	return true
}

// rankBefore returns the prefix sum strictly before absolute value-slab
// index a (0 for a == 0). The caller guarantees a ≤ len(ranks).
func rankBefore(ranks []uint64, a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return ranks[a-1]
}

// windowTuples returns the number of tuples represented by values
// [lo, hi) of union id, and whether the window is covered by the ranked
// index.
func (s *Store) windowTuples(id NodeID, lo, hi int) (uint64, bool) {
	if !s.NodeRanked(id) {
		return 0, false
	}
	if lo < 0 {
		lo = 0
	}
	h := s.hdr(id)
	if hi > int(h.nVals) {
		hi = int(h.nVals)
	}
	if lo >= hi {
		return 0, true
	}
	ranks := s.rankOwner().ranks
	base := uint64(h.valOff)
	return ranks[base+uint64(hi)-1] - rankBefore(ranks, base+uint64(lo)), true
}

// RankTotal returns the total number of flat tuples represented by the
// subtree of union id, when the ranked index covers it. The empty node
// reports 0.
func (s *Store) RankTotal(id NodeID) (int64, bool) {
	t, ok := s.windowTuples(id, 0, s.Len(id))
	if !ok {
		return 0, false
	}
	return int64(t), true // totals are capped at 2⁶², so int64 is exact
}

// rankSeek finds the value position of union id — iterating the window
// [lo, hi) ascending or descending — that contains the q-th tuple
// (0-based, in iteration order), returning the position and the number
// of tuples strictly before it in iteration order. The caller
// guarantees the node is ranked, lo ≤ hi valid, and q less than the
// window's tuple count.
func (s *Store) rankSeek(id NodeID, lo, hi int, q uint64, desc bool) (int, uint64) {
	ranks := s.rankOwner().ranks
	base := uint64(s.hdr(id).valOff)
	pre := func(p int) uint64 { return rankBefore(ranks, base+uint64(p)) }
	if !desc {
		// Smallest v with the inclusive sum through v exceeding q; values
		// of weight 0 are never selected (their inclusive sum equals their
		// exclusive one).
		d := sort.Search(hi-lo, func(d int) bool { return pre(lo+d+1)-pre(lo) > q })
		pos := lo + d
		return pos, pre(pos) - pre(lo)
	}
	// Descending: the tuples before position p are those of values after
	// it. Find the smallest p whose suffix sum is ≤ q (suffix sums shrink
	// as p grows, so the predicate is monotone).
	d := sort.Search(hi-lo, func(d int) bool { return pre(hi)-pre(lo+d+1) <= q })
	pos := lo + d
	return pos, pre(hi) - pre(pos+1)
}

// BuildRanks computes the ranked index over the store's current
// contents in one pass over the node slab. It must be called on a plain
// store (not an overlay). Nodes whose value window starts before the
// running cursor alias an earlier window (segment views) and contribute
// nothing new. An error is returned — and the store left unranked — if
// any subtree total would exceed maxRankTotal.
func (s *Store) BuildRanks() error {
	if s.base != nil {
		return fmt.Errorf("frep: BuildRanks on an overlay store")
	}
	ranks := s.ranks[:0]
	s.ranks = nil
	s.rankedKids = 0
	if cap(ranks) < len(s.vals) {
		ranks = make([]uint64, 0, len(s.vals))
	}
	var running uint64
	for id := range s.nodes {
		h := &s.nodes[id]
		if h.nVals == 0 || int(h.valOff) < len(ranks) {
			continue // empty node or alias over an earlier window
		}
		// Defensive gap fill (unreachable for stores built through Add):
		// values owned by no node weigh 0.
		for len(ranks) < int(h.valOff) {
			ranks = append(ranks, running)
		}
		for v := 0; v < int(h.nVals); v++ {
			w := uint64(1)
			for j := 0; j < int(h.arity); j++ {
				kh := &s.nodes[s.kids[h.kidOff+uint32(v)*h.arity+uint32(j)]]
				kt := uint64(0)
				if kh.nVals > 0 {
					end := uint64(kh.valOff) + uint64(kh.nVals)
					kt = ranks[end-1] - rankBefore(ranks, uint64(kh.valOff))
				}
				hi, lo := bits.Mul64(w, kt)
				if hi != 0 || lo > maxRankTotal {
					return fmt.Errorf("frep: BuildRanks: subtree count overflow at node %d", id)
				}
				w = lo
			}
			if running > maxRankTotal-w {
				return fmt.Errorf("frep: BuildRanks: prefix count overflow at node %d", id)
			}
			running += w
			ranks = append(ranks, running)
		}
	}
	for len(ranks) < len(s.vals) {
		ranks = append(ranks, running)
	}
	s.ranks = ranks
	s.rankedKids = uint32(len(s.kids))
	return nil
}

// WeightedSegments splits the value window [0, Len(id)) of union id
// into at most p contiguous windows of near-equal represented tuple
// count, using the ranked index — the skew-aware counterpart of
// Segments. A heavily skewed union yields fewer (possibly one) windows:
// a window never splits below one value, and empty windows are dropped.
// When the index does not cover id, or it represents no tuples, this
// falls back to the arity-uniform Segments.
func WeightedSegments(s *Store, id NodeID, p int) [][2]int {
	n := s.Len(id)
	total, ok := s.windowTuples(id, 0, n)
	if !ok || total == 0 || p < 2 || n < 2 {
		return Segments(n, p)
	}
	if p > n {
		p = n
	}
	ranks := s.rankOwner().ranks
	base := uint64(s.hdr(id).valOff)
	pre := func(v int) uint64 { return rankBefore(ranks, base+uint64(v)) }
	out := make([][2]int, 0, p)
	lo := 0
	for w := 1; w <= p && lo < n; w++ {
		hi := n
		if w < p {
			// The w-th quantile boundary: the number of values whose
			// cumulative weight stays within w/p of the total.
			qhi, qlo := bits.Mul64(total, uint64(w))
			target, _ := bits.Div64(qhi, qlo, uint64(p))
			hi = lo + sort.Search(n-lo, func(d int) bool { return pre(lo+d+1) > target })
			if hi <= lo {
				hi = lo + 1 // never split below one value
			}
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// extendRanksForGraft extends a complete ranked index across a Graft of
// other (itself completely ranked) into s, keeping s complete; called by
// Graft with the slab base offsets captured before appending. On
// overflow the extension is abandoned and s keeps only its ranked
// prefix.
func (s *Store) extendRanksForGraft(other *Store) {
	last := uint64(0)
	if len(s.ranks) > 0 {
		last = s.ranks[len(s.ranks)-1]
	}
	if len(other.ranks) > 0 && last > maxRankTotal-other.ranks[len(other.ranks)-1] {
		return // keep the valid prefix; the grafted nodes stay unranked
	}
	for _, r := range other.ranks {
		s.ranks = append(s.ranks, r+last)
	}
	s.rankedKids = uint32(len(s.kids))
}
