package fops

// The χ restructuring operator, with kid rows assembled directly into
// the store slabs.

import (
	"fmt"
	"slices"

	"github.com/factordb/fdb/internal/frep"
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
// and G_ab the dependent ones (they stay below A). The cost is linear in
// the size of the restructured fragment.
func (ar *ARel) Swap(attr string) error {
	b := ar.Tree.ResolveAttr(attr)
	if b == nil {
		return fmt.Errorf("fops: swap: unknown attribute %q", attr)
	}
	return ar.SwapNode(b)
}

// SwapNode is Swap addressing the f-tree node directly.
func (ar *ARel) SwapNode(b *ftree.Node) error {
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
	err = ar.rebuildAt(ri, path, func(st *frep.Store) rebuildFn {
		return func(ua frep.NodeID) (frep.NodeID, error) {
			return swapUnionIn(st, ua, plan, aOther), nil
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

func swapUnionIn(s *frep.Store, ua frep.NodeID, plan *ftree.SwapPlan, aOther []int) frep.NodeID {
	aVals := s.Vals(ua)
	// Gather all (a, b) pairs as packed indices (aIdx<<32 | bIdx): the
	// sort then moves 8-byte words and each comparison looks the b-value
	// up through a small per-a table.
	bIDs := make([]frep.NodeID, len(aVals))
	bVals := make([][]values.Value, len(aVals))
	total := 0
	for i := range aVals {
		bIDs[i] = s.Kid(ua, i, plan.BIdx)
		bVals[i] = s.Vals(bIDs[i])
		total += len(bVals[i])
	}
	allInt := true
	for i := range aVals {
		for _, v := range bVals[i] {
			if v.Kind() != values.Int {
				allInt = false
				break
			}
		}
		if !allInt {
			break
		}
	}
	entries := make([]int64, 0, total)
	for i := range aVals {
		for j := range bVals[i] {
			entries = append(entries, int64(i)<<32|int64(j))
		}
	}
	valOf := func(e int64) values.Value {
		return bVals[e>>32][int32(e)]
	}
	// Group by b, breaking ties by the a-position so each group keeps
	// the ascending a-order (the packed aIdx sits in the high bits).
	if allInt {
		// Fast path: sort (int key, packed position) pairs without
		// touching Value structs in the comparator.
		type keyed struct{ k, e int64 }
		ks := make([]keyed, len(entries))
		for i, e := range entries {
			ks[i] = keyed{k: valOf(e).Int(), e: e}
		}
		slices.SortFunc(ks, func(x, y keyed) int {
			switch {
			case x.k < y.k:
				return -1
			case x.k > y.k:
				return 1
			case x.e < y.e:
				return -1
			case x.e > y.e:
				return 1
			default:
				return 0
			}
		})
		for i, kv := range ks {
			entries[i] = kv.e
		}
	} else {
		slices.SortFunc(entries, func(x, y int64) int {
			if c := values.Compare(valOf(x), valOf(y)); c != 0 {
				return c
			}
			return int(x>>32) - int(y>>32)
		})
	}

	aRowLen := len(aOther) + len(plan.DepIdx)
	outArity := 1 + len(plan.IndepIdx)
	var outB, naB frep.UnionBuilder
	outB.Reset(s, outArity)
	outRow := make([]frep.NodeID, 0, outArity)
	naRow := make([]frep.NodeID, 0, aRowLen)
	for start := 0; start < len(entries); {
		end := start + 1
		firstVal := valOf(entries[start])
		for end < len(entries) && values.Compare(valOf(entries[end]), firstVal) == 0 {
			end++
		}
		run := entries[start:end]
		firstA, firstB := int32(run[0]>>32), int32(run[0])
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
		na := naB.Finish()
		// Independent children move up with B, taken from the first
		// occurrence (they are equal across occurrences by the
		// dependency analysis).
		outRow = outRow[:0]
		outRow = append(outRow, na)
		for _, k := range plan.IndepIdx {
			outRow = append(outRow, firstRow[k])
		}
		outB.Append(firstVal, outRow)
		start = end
	}
	return outB.Finish()
}
