package fops

// The χ restructuring operator, with kid rows assembled directly into
// the store slabs.

import (
	"fmt"
	"slices"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/frep/kernel"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/values"
)

// Swap applies the restructuring operator χ_{A,B} (Section 4.2): node B
// (carrying attr) is exchanged with its parent A. On the data side every
// occurrence
//
//	⋃_a ⟨A:a⟩ × E_a × ⋃_b (⟨B:b⟩ × F_b × G_ab)
//
// is regrouped into
//
//	⋃_b ⟨B:b⟩ × F_b × ⋃_a (⟨A:a⟩ × E_a × G_ab)
//
// where F_b are the children of B independent of A (they move up with B)
// and G_ab the dependent ones (they stay below A). With Int B-values —
// every key of the paper's workload — the cost is linear in the size of
// the restructured fragment (a stable radix distribution of the (a, b)
// pairs, swapUnionIn); other key kinds pay the N log N of a
// values.Compare sort over the same pairs.
func (ar *ARel) Swap(attr string) error {
	b := ar.Tree.ResolveAttr(attr)
	if b == nil {
		return fmt.Errorf("fops: swap: unknown attribute %q", attr)
	}
	plan, err := ftree.PlanSwap(b)
	if err != nil {
		return err
	}
	a := plan.A
	ri, path, err := ar.pathFromRoot(a)
	if err != nil {
		return err
	}
	// Positions of A's children other than B, in order (they follow A in
	// the output rows, preceding the dependent children of B — matching
	// ftree.ApplySwap's child order: A.Children = aOther ++ dep).
	var aOther []int
	for i := range a.Children {
		if i != plan.BIdx {
			aOther = append(aOther, i)
		}
	}
	err = ar.rebuildAt(ri, path, func(st *frep.Store, sc *scratch) rebuildFn {
		return func(ua frep.NodeID) (frep.NodeID, error) {
			return swapUnionIn(st, &sc.swap, ua, plan, aOther), nil
		}
	})
	if err != nil {
		return err
	}
	ar.Tree.ApplySwap(plan)
	if ar.IsEmpty() {
		ar.MakeEmpty()
	}
	return nil
}

// swapScratch is χ's working memory: everything swapUnionIn needs per
// occurrence, grown to the high-water mark once and then reused by every
// occurrence the executing store visits (it lives in that store's
// rebuild scratch, so parallel workers never share one). Nothing in it
// carries meaning from one occurrence to the next.
type swapScratch struct {
	bIDs      []frep.NodeID // the B-union under each A-value
	keys      []int64       // Int path: the B-values, in pair order
	pos       []int64       // the (a, b) pairs, packed aIdx<<32 | bIdx
	sort      kernel.SortScratch
	bVals     [][]values.Value // generic path: the B-unions' value windows
	outB, naB frep.UnionBuilder
	outRow    []frep.NodeID
	naRow     []frep.NodeID
	// pinned records that the generic path ran: bVals and the builders
	// may then reference slab, string or vector memory, which a pooled
	// scratch must not keep alive (see scratch.unpin).
	pinned bool
}

// swapUnionIn restructures one occurrence ua of the A-union.
//
// The (a, b) pairs are generated a-major — A-values in union order, and
// under each its B-list, itself ascending — so the regrouping needs
// exactly a sort of the pairs by b that is stable: it brings equal
// b-values together and leaves the a-positions inside each group in
// generation order, which is ascending a. When every B-value is an Int
// (the keys come straight from the column index's payload window where
// it covers the B-union, and from Value.Int() for unions appended since)
// that sort is kernel.SortPairsInt64, linear in the pairs. Any other
// key kind, a mix of kinds, or frep.EnableKernels off takes the
// values.Compare sort, O(N log N), which is not stable and therefore
// carries the a-position as an explicit tie-break.
func swapUnionIn(s *frep.Store, sc *swapScratch, ua frep.NodeID, plan *ftree.SwapPlan, aOther []int) frep.NodeID {
	aVals := s.Vals(ua)
	bIDs, keys, pos := sc.bIDs[:0], sc.keys[:0], sc.pos[:0]
	intKeys := frep.EnableKernels
	for i := range aVals {
		ub := s.Kid(ua, i, plan.BIdx)
		bIDs = append(bIDs, ub)
		if intKeys {
			switch k, pay, ok := s.ColRun(ub); {
			case ok && k == values.Int:
				keys = append(keys, pay...)
			case ok:
				intKeys = false
			default:
				for _, v := range s.Vals(ub) {
					if v.Kind() != values.Int {
						intKeys = false
						break
					}
					keys = append(keys, v.Int())
				}
			}
		}
		hi := int64(i) << 32
		for j, n := int64(0), int64(s.Len(ub)); j < n; j++ {
			pos = append(pos, hi|j)
		}
	}
	sc.bIDs, sc.keys, sc.pos = bIDs, keys, pos
	var bVals [][]values.Value // generic path only
	if intKeys {
		keys, pos = kernel.SortPairsInt64(keys, pos, &sc.sort)
	} else {
		bVals = sc.bVals[:0]
		for _, ub := range bIDs {
			bVals = append(bVals, s.Vals(ub))
		}
		sc.bVals, sc.pinned = bVals, true
		slices.SortFunc(pos, func(x, y int64) int {
			if c := values.Compare(bVals[x>>32][int32(x)], bVals[y>>32][int32(y)]); c != 0 {
				return c
			}
			return int(x>>32) - int(y>>32)
		})
	}

	aRowLen := len(aOther) + len(plan.DepIdx)
	outB, naB := &sc.outB, &sc.naB
	outB.Reset(s, 1+len(plan.IndepIdx))
	naRow, outRow := sc.naRow, sc.outRow
	for start := 0; start < len(pos); {
		firstA, firstB := int32(pos[start]>>32), int32(pos[start])
		firstVal := s.Val(bIDs[firstA], int(firstB))
		end := start + 1
		if intKeys {
			for end < len(pos) && keys[end] == keys[start] {
				end++
			}
		} else {
			for end < len(pos) && values.Compare(bVals[pos[end]>>32][int32(pos[end])], firstVal) == 0 {
				end++
			}
		}
		run := pos[start:end]
		firstRow := s.KidRow(bIDs[firstA], int(firstB))
		if Paranoid {
			for _, e := range run[1:] {
				bRow := s.KidRow(bIDs[int32(e>>32)], int(int32(e)))
				for _, k := range plan.IndepIdx {
					if !frep.EqualStore(s, firstRow[k], s, bRow[k]) {
						panic(fmt.Sprintf("fops: swap: subtree classified independent differs across contexts for value %v", firstVal))
					}
				}
			}
		}
		// The new A-union below this b: for each occurrence, the E_a
		// parts followed by the G_ab parts.
		naB.Reset(s, aRowLen)
		for _, e := range run {
			aIdx, bIdx := int32(e>>32), int32(e)
			if aRowLen > 0 {
				row := s.KidRow(ua, int(aIdx))
				bRow := s.KidRow(bIDs[aIdx], int(bIdx))
				naRow = naRow[:0]
				for _, k := range aOther {
					naRow = append(naRow, row[k])
				}
				for _, k := range plan.DepIdx {
					naRow = append(naRow, bRow[k])
				}
				naB.Append(aVals[aIdx], naRow)
			} else {
				naB.Append(aVals[aIdx], nil)
			}
		}
		// Independent children move up with B, taken from the first
		// occurrence (they are equal across occurrences by the
		// dependency analysis).
		outRow = append(outRow[:0], naB.Finish())
		for _, k := range plan.IndepIdx {
			outRow = append(outRow, firstRow[k])
		}
		outB.Append(firstVal, outRow)
		start = end
	}
	sc.naRow, sc.outRow = naRow, outRow
	return outB.Finish()
}
