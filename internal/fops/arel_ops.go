package fops

// The f-plan operators. Each reads and writes store slabs: new nodes are
// appended, untouched subtrees are referenced by id, and no per-node
// heap objects are created. Operators express their per-occurrence
// transform as a rebuildFn factory so the occurrence loop can fan across
// segment workers (arel_parallel.go): the factory runs once per
// executing store and binds that instance's builder and evaluator
// scratch to it.

import (
	"fmt"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/frep/kernel"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/values"
)

// SelectConst applies the selection σ_{attr op c} in one traversal of
// the representation, filtering the attribute's unions and pruning
// emptied contexts.
func (ar *ARel) SelectConst(attr string, op CmpOp, c values.Value) error {
	n := ar.Tree.ResolveAttr(attr)
	if n == nil {
		return fmt.Errorf("fops: select: unknown attribute %q", attr)
	}
	ri, path, err := ar.pathFromRoot(n)
	if err != nil {
		return err
	}
	return ar.rebuildAt(ri, path, func(st *frep.Store, _ *scratch) rebuildFn {
		var b frep.UnionBuilder
		var bits []uint64
		kop := kernel.Op(op) // CmpOp and kernel.Op share their numbering
		return func(id frep.NodeID) (frep.NodeID, error) {
			// Vectorised path: compare the whole value run through a
			// kernel and compact by bitmap runs; falls through to the
			// scalar loop for mixed-kind or non-numeric runs.
			if out, ok := st.SelectConstKernel(id, kop, c, &bits); ok {
				return out, nil
			}
			arity := st.Arity(id)
			b.Reset(st, arity)
			for i, v := range st.Vals(id) {
				if !op.Holds(v, c) {
					continue
				}
				if arity > 0 {
					b.Append(v, st.KidRow(id, i))
				} else {
					b.Append(v, nil)
				}
			}
			return b.Finish(), nil
		}
	})
}

// Merge implements the equality selection attrA = attrB when the two
// attributes' nodes are siblings (children of the same node, or both
// roots): the sorted value lists are intersected, the two nodes' children
// are concatenated, and the two classes become one (the paper's merge
// operator).
func (ar *ARel) Merge(attrA, attrB string) error {
	x := ar.Tree.ResolveAttr(attrA)
	y := ar.Tree.ResolveAttr(attrB)
	if x == nil || y == nil {
		return fmt.Errorf("fops: merge: unknown attribute %q or %q", attrA, attrB)
	}
	if x == y {
		return nil // already equal
	}
	plan, err := ftree.PlanMerge(ar.Tree, x, y)
	if err != nil {
		return err
	}
	if plan.Parent == nil {
		s := ar.Store
		var ib frep.UnionBuilder
		var pairs [][2]int32
		merged := intersectUnionsIn(s, &ib, &pairs, ar.Roots[plan.XIdx], ar.Roots[plan.YIdx])
		if s.Len(merged) == 0 {
			ar.Tree.ApplyMerge(plan)
			ar.Roots = ar.Roots[:len(ar.Roots)-1]
			ar.MakeEmpty()
			return nil
		}
		out := make([]frep.NodeID, 0, len(ar.Roots)-1)
		for k, u := range ar.Roots {
			switch k {
			case plan.XIdx:
				out = append(out, merged)
			case plan.YIdx:
				// dropped
			default:
				out = append(out, u)
			}
		}
		ar.Roots = out
	} else {
		ri, path, err := ar.pathFromRoot(plan.Parent)
		if err != nil {
			return err
		}
		err = ar.rebuildAt(ri, path, func(st *frep.Store, _ *scratch) rebuildFn {
			var ib, b frep.UnionBuilder
			var scratch []frep.NodeID
			var pairs [][2]int32
			return func(id frep.NodeID) (frep.NodeID, error) {
				arity := st.Arity(id) - 1
				b.Reset(st, arity)
				for i, v := range st.Vals(id) {
					row := st.KidRow(id, i)
					merged := intersectUnionsIn(st, &ib, &pairs, row[plan.XIdx], row[plan.YIdx])
					if st.Len(merged) == 0 {
						continue
					}
					scratch = scratch[:0]
					for k, u := range row {
						switch k {
						case plan.XIdx:
							scratch = append(scratch, merged)
						case plan.YIdx:
							// dropped
						default:
							scratch = append(scratch, u)
						}
					}
					b.Append(v, scratch)
				}
				return b.Finish(), nil
			}
		})
		if err != nil {
			return err
		}
	}
	ar.Tree.ApplyMerge(plan)
	if ar.IsEmpty() {
		ar.MakeEmpty()
	}
	return nil
}

// intersectUnionsIn intersects two sorted unions of st; for each common
// value the children of both sides are concatenated (x's children
// first), matching the merged node's child order. b and pairs are the
// caller's reused scratch.
func intersectUnionsIn(st *frep.Store, b *frep.UnionBuilder, pairs *[][2]int32, x, y frep.NodeID) frep.NodeID {
	arity := st.Arity(x) + st.Arity(y)
	b.Reset(st, arity)
	xv, yv := st.Vals(x), st.Vals(y)
	var row []frep.NodeID
	// Vectorised path: when both runs are kind-homogeneous the kernel
	// two-pointer merge finds the matching index pairs without per-value
	// Compare dispatch; the kid rows are then spliced per pair.
	if ps, ok := st.IntersectPairs(x, y, (*pairs)[:0]); ok {
		*pairs = ps
		for _, p := range ps {
			i, j := int(p[0]), int(p[1])
			if arity > 0 {
				row = row[:0]
				if st.Arity(x) > 0 {
					row = append(row, st.KidRow(x, i)...)
				}
				if st.Arity(y) > 0 {
					row = append(row, st.KidRow(y, j)...)
				}
				b.Append(xv[i], row)
			} else {
				b.Append(xv[i], nil)
			}
		}
		return b.Finish()
	}
	i, j := 0, 0
	for i < len(xv) && j < len(yv) {
		c := values.Compare(xv[i], yv[j])
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			if arity > 0 {
				row = row[:0]
				if st.Arity(x) > 0 {
					row = append(row, st.KidRow(x, i)...)
				}
				if st.Arity(y) > 0 {
					row = append(row, st.KidRow(y, j)...)
				}
				b.Append(xv[i], row)
			} else {
				b.Append(xv[i], nil)
			}
			i++
			j++
		}
	}
	return b.Finish()
}

// Absorb implements the equality selection attrAnc = attrDesc when
// attrDesc's node is a strict descendant of attrAnc's node: within each
// ancestor value's context the descendant union is restricted to that
// value, the descendant node's class is absorbed into the ancestor's, and
// its children are hoisted to its parent (the paper's absorb operator).
func (ar *ARel) Absorb(attrAnc, attrDesc string) error {
	a := ar.Tree.ResolveAttr(attrAnc)
	d := ar.Tree.ResolveAttr(attrDesc)
	if a == nil || d == nil {
		return fmt.Errorf("fops: absorb: unknown attribute %q or %q", attrAnc, attrDesc)
	}
	if a == d {
		return nil
	}
	plan, err := ftree.PlanAbsorb(a, d)
	if err != nil {
		return err
	}
	ri, path, err := ar.pathFromRoot(a)
	if err != nil {
		return err
	}
	dLeaf := d.IsLeaf()
	dn := 0 // hoisted children of the descendant
	if !dLeaf {
		dn = len(d.Children)
	}
	err = ar.rebuildAt(ri, path, func(st *frep.Store, _ *scratch) rebuildFn {
		var b frep.UnionBuilder
		return func(ua frep.NodeID) (frep.NodeID, error) {
			// The row width changes only at the descendant's parent: it loses
			// the descendant and gains its hoisted children.
			newArity := st.Arity(ua)
			if len(plan.Path) == 1 {
				newArity += dn - 1
			}
			b.Reset(st, newArity)
			for i, v := range st.Vals(ua) {
				row, ok := absorbRowIn(st, st.KidRow(ua, i), plan.Path, v, dLeaf, dn)
				if !ok {
					continue
				}
				b.Append(v, row)
			}
			return b.Finish(), nil
		}
	})
	if err != nil {
		return err
	}
	ar.Tree.ApplyAbsorb(plan)
	if ar.IsEmpty() {
		ar.MakeEmpty()
	}
	return nil
}

// absorbRowIn restricts the descendant (reached through path) to value v
// and splices its children into the containing row. ok=false when the
// value is absent (context pruned).
func absorbRowIn(st *frep.Store, row []frep.NodeID, path []int, v values.Value, dLeaf bool, dn int) ([]frep.NodeID, bool) {
	p := path[0]
	if len(path) == 1 {
		du := row[p]
		// FindValue binary-searches through a kernel when the union's run
		// is kind-homogeneous, and via scalar sort.Search otherwise.
		pos, found := st.FindValue(du, v)
		if !found {
			return nil, false
		}
		var hoist []frep.NodeID
		if !dLeaf {
			hoist = st.KidRow(du, pos)
		}
		out := make([]frep.NodeID, 0, len(row)-1+len(hoist))
		out = append(out, row[:p]...)
		out = append(out, hoist...)
		out = append(out, row[p+1:]...)
		return out, true
	}
	mid := row[p]
	var b frep.UnionBuilder
	// The intermediate node's rows keep their width unless the next hop
	// is the descendant itself, in which case they lose the descendant
	// and gain its hoisted children.
	width := st.Arity(mid)
	if len(path) == 2 {
		width += dn - 1
	}
	b.Reset(st, width)
	for j, w := range st.Vals(mid) {
		r2, ok := absorbRowIn(st, st.KidRow(mid, j), path[1:], v, dLeaf, dn)
		if !ok {
			continue
		}
		b.Append(w, r2)
	}
	nm := b.Finish()
	if st.Len(nm) == 0 {
		return nil, false
	}
	out := make([]frep.NodeID, len(row))
	copy(out, row)
	out[p] = nm
	return out, true
}

// RemoveLeaf implements projection away of a leaf node: the node's unions
// disappear from their containing rows. Set semantics — no duplicates
// arise because the remaining factors of each product are untouched. Use
// the aggregation operator instead when multiplicities matter.
func (ar *ARel) RemoveLeaf(attr string) error {
	n := ar.Tree.ResolveAttr(attr)
	if n == nil {
		return fmt.Errorf("fops: remove: unknown attribute %q", attr)
	}
	plan, err := ftree.PlanRemoveLeaf(ar.Tree, n)
	if err != nil {
		return err
	}
	wasEmpty := ar.IsEmpty()
	if n.Parent == nil && len(ar.Roots) == 1 && wasEmpty {
		// Removing the last attribute of ∅ would leave the nullary ⟨⟩,
		// which represents one tuple, not zero. Refuse.
		return fmt.Errorf("fops: remove: cannot project away the last attribute of an empty relation")
	}
	if n.Parent == nil {
		ar.Roots = append(ar.Roots[:plan.Idx], ar.Roots[plan.Idx+1:]...)
	} else {
		ri, path, err := ar.pathFromRoot(n.Parent)
		if err != nil {
			return err
		}
		err = ar.rebuildAt(ri, path, func(st *frep.Store, _ *scratch) rebuildFn {
			var b frep.UnionBuilder
			var scratch []frep.NodeID
			return func(id frep.NodeID) (frep.NodeID, error) {
				if st.Len(id) == 0 {
					return frep.EmptyNode, nil
				}
				if frep.EnableKernels {
					// Every value survives; only the kid rows narrow. Copy
					// the slab windows wholesale instead of building per
					// value.
					return st.RemoveKidColumn(id, plan.Idx), nil
				}
				arity := st.Arity(id)
				b.Reset(st, arity-1)
				for i, v := range st.Vals(id) {
					row := st.KidRow(id, i)
					scratch = scratch[:0]
					scratch = append(scratch, row[:plan.Idx]...)
					scratch = append(scratch, row[plan.Idx+1:]...)
					b.Append(v, scratch)
				}
				return b.Finish(), nil
			}
		})
		if err != nil {
			return err
		}
	}
	ar.Tree.ApplyRemoveLeaf(plan)
	if wasEmpty {
		ar.MakeEmpty()
	}
	return nil
}

// Rename renames an attribute: for an atomic attribute the class member is
// renamed; for an aggregate node (referenced by its label or current
// alias) the alias is set. Constant time — names live in the f-tree.
func (ar *ARel) Rename(attr, to string) error {
	n := ar.Tree.ResolveAttr(attr)
	if n == nil {
		return fmt.Errorf("fops: rename: unknown attribute %q", attr)
	}
	if n.IsAgg() {
		n.Alias = to
		return nil
	}
	for i, a := range n.Attrs {
		if a == attr {
			n.Attrs[i] = to
			return nil
		}
	}
	return fmt.Errorf("fops: rename: attribute %q not found in class %s", attr, n.Label())
}

// Gamma applies the aggregation operator γ_F(U) of Section 3: the subtree
// rooted at the node carrying attr is replaced — in the f-tree by a new
// aggregate node F(U), and in the representation by a singleton holding
// the value of F on each occurrence's represented relation, computed by
// the linear-time algorithms of Section 3.2. fields may hold several
// aggregation functions (composite aggregates, Section 3.2.4); their
// values are stored as a vector.
func (ar *ARel) Gamma(attr string, fields []ftree.AggField) error {
	u := ar.Tree.ResolveAttr(attr)
	if u == nil {
		return fmt.Errorf("fops: γ: unknown attribute %q", attr)
	}
	plan, err := ftree.PlanAgg(ar.Tree, u, fields)
	if err != nil {
		return err
	}
	// Compile once up front so composition errors (Proposition 2)
	// surface even when the occurrence loop never runs.
	if _, err := frep.NewEvaluator(u, fields); err != nil {
		return err
	}
	ri, path, err := ar.pathFromRoot(u)
	if err != nil {
		return err
	}
	wasEmpty := ar.IsEmpty()
	err = ar.rebuildAt(ri, path, func(st *frep.Store, _ *scratch) rebuildFn {
		ev, evErr := frep.NewEvaluator(u, fields)
		vals := make([]values.Value, len(fields))
		var one [1]values.Value
		return func(sub frep.NodeID) (frep.NodeID, error) {
			if evErr != nil {
				return frep.EmptyNode, evErr
			}
			if err := ev.EvalStoreInto(st, sub, vals); err != nil {
				return frep.EmptyNode, err
			}
			if len(vals) == 1 {
				one[0] = vals[0]
			} else {
				// NewVec retains its argument; copy out of the reused scratch.
				one[0] = values.NewVec(append([]values.Value{}, vals...))
			}
			return st.AddLeaf(one[:]), nil
		}
	})
	if err != nil {
		return err
	}
	ar.Tree.ApplyAgg(plan)
	if wasEmpty {
		ar.MakeEmpty()
	}
	return nil
}
