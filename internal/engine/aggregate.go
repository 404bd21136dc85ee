package engine

import (
	"fmt"
	"slices"
	"sort"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// havingFilter applies the HAVING conditions to an assembled output row.
type havingFilter struct {
	conds []query.Filter
	cols  []int
}

func newHavingFilter(q *query.Query) (*havingFilter, error) {
	if len(q.Having) == 0 {
		return nil, nil
	}
	outs := q.OutputAttrs()
	h := &havingFilter{conds: q.Having}
	for _, c := range q.Having {
		found := -1
		for j, o := range outs {
			if o == c.Attr {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("engine: HAVING references unknown output %q", c.Attr)
		}
		h.cols = append(h.cols, found)
	}
	return h, nil
}

func (h *havingFilter) keep(row relation.Tuple) bool {
	if h == nil {
		return true
	}
	for i, c := range h.conds {
		if !c.Op.Holds(row[h.cols[i]], c.Const) {
			return false
		}
	}
	return true
}

// newSortedCursor is the fallback for ordering by an aggregate when the
// group-by attributes span several branches of the f-tree (no single
// aggregate subtree exists): the grouped output is materialised and
// sorted flat, as a relational engine would.
func (r *Result) newSortedCursor() (rowCursor, error) {
	cmp, err := sortedOutputCmp(r.Query)
	if err != nil {
		return nil, err
	}
	cur, err := r.newGroupedCursor(false)
	if err != nil {
		return nil, err
	}
	var rows []relation.Tuple
	for {
		t, ok, err := cur.step()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		rows = append(rows, t.Clone())
	}
	sort.SliceStable(rows, func(x, y int) bool { return cmp(rows[x], rows[y]) < 0 })
	return &sliceCursor{rows: rows}, nil
}

// sortedOutputCmp builds the sort-fallback comparator over output rows:
// the ORDER BY keys, ties broken by full-tuple comparison — the same
// total order relation.Sort applies.
func sortedOutputCmp(q *query.Query) (func(a, b relation.Tuple) int, error) {
	outs := q.OutputAttrs()
	idx := make([]int, len(q.OrderBy))
	desc := make([]bool, len(q.OrderBy))
	for i, o := range q.OrderBy {
		idx[i] = -1
		for j, a := range outs {
			if a == o.Attr {
				idx[i] = j
				break
			}
		}
		if idx[i] < 0 {
			return nil, fmt.Errorf("engine: sort: output has no attribute %q", o.Attr)
		}
		desc[i] = o.Desc
	}
	return func(a, b relation.Tuple) int {
		for i, j := range idx {
			c := values.Compare(a[j], b[j])
			if c != 0 {
				if desc[i] {
					return -c
				}
				return c
			}
		}
		return relation.Compare(a, b)
	}, nil
}

// newMaterialisedCursor materialises the final aggregate into a single
// attribute (required to order by an aggregate output), restructures for
// the order, and enumerates. The ordered aggregates' fields are placed
// first in the node's field list so the sorted vector order coincides
// with the requested order. When the group-by attributes span several
// branches (no single aggregate subtree), or an ordered output is a
// composite that no node stores (its order is not a field's order), it
// falls back to the flat sort of newSortedCursor.
func (r *Result) newMaterialisedCursor() (rowCursor, error) {
	q := r.Query
	if len(q.GroupBy) == 0 {
		// Global aggregate: a single row; ordering is irrelevant.
		return r.newGroupedCursor(true)
	}
	// Field order: ordered aggregate outputs first.
	ordered := map[string]bool{}
	inG := map[string]bool{}
	for _, g := range q.GroupBy {
		inG[g] = true
	}
	for _, o := range q.OrderBy {
		if !inG[o.Attr] {
			ordered[o.Attr] = true
		}
	}
	var aggsSorted []query.Aggregate
	for _, a := range q.Aggregates {
		if ordered[a.OutName()] {
			if !a.Fn.Storable() {
				return r.newSortedCursor()
			}
			aggsSorted = append(aggsSorted, a)
		}
	}
	for _, a := range q.Aggregates {
		if !ordered[a.OutName()] {
			aggsSorted = append(aggsSorted, a)
		}
	}
	sorted, err := query.Lower(aggsSorted)
	if err != nil {
		return nil, err
	}
	low, err := query.Lower(q.Aggregates)
	if err != nil {
		return nil, err
	}
	fields := sorted.Fields()

	// Locate the single maximal non-group subtree; when the group-by
	// attributes span several branches no such subtree exists and we fall
	// back to a flat sort of the grouped output.
	u, err := r.singleNonGroupSubtree(inG)
	if err != nil {
		return r.newSortedCursor()
	}
	if !(u.IsLeaf() && u.IsAgg() && slices.Equal(u.Agg.Fields, fields)) {
		if err := r.ARel.GammaNode(u, fields); err != nil {
			return nil, err
		}
		if u2, err2 := r.singleNonGroupSubtree(inG); err2 == nil {
			u = u2
		} else {
			return nil, err2
		}
	}
	// A sole aggregate names the node; otherwise the node keeps its label
	// and outputs are finalised from its label.field columns.
	aggNodeName := attrOf(u)
	if len(q.Aggregates) == 1 {
		alias := q.Aggregates[0].OutName()
		if err := r.ARel.Rename(aggNodeName, alias); err != nil {
			return nil, err
		}
		aggNodeName = alias
	}

	// Restructure for the order: group attributes by name, aggregate
	// outputs via the aggregate node's name.
	var orderAttrs []string
	var specs []frep.OrderSpec
	for _, o := range q.OrderBy {
		attr := o.Attr
		if !inG[attr] {
			attr = aggNodeName
		}
		orderAttrs = append(orderAttrs, attr)
		specs = append(specs, frep.OrderSpec{Attr: attr, Desc: o.Desc})
	}
	for i := 0; ; i++ {
		if i > 1000 {
			return nil, fmt.Errorf("engine: order restructuring did not converge")
		}
		v := r.Tree().OrderViolation(orderAttrs)
		if v == nil {
			break
		}
		if err := r.ARel.SwapNode(v); err != nil {
			return nil, err
		}
	}

	en, err := r.ARel.Enumerator(specs)
	if err != nil {
		return nil, err
	}
	schema := en.Schema()
	groupIdx, err := columnIndices(schema, q.GroupBy)
	if err != nil {
		return nil, err
	}
	node := r.Tree().ResolveAttr(aggNodeName)
	if node == nil {
		return nil, fmt.Errorf("engine: internal: aggregate node %q lost", aggNodeName)
	}
	fieldIdx, err := fieldColumns(low.Fields(), node, schema)
	if err != nil {
		return nil, err
	}
	having, err := newHavingFilter(q)
	if err != nil {
		return nil, err
	}
	return &enumCursor{
		en:     tupleEnum{en},
		cols:   groupIdx,
		low:    low,
		fields: fieldIdx,
		having: having,
		vals:   make([]values.Value, len(fieldIdx)),
		out:    make(relation.Tuple, len(groupIdx)+len(q.Aggregates)),
	}, nil
}

// singleNonGroupSubtree finds the unique maximal subtree containing no
// group-by attribute.
func (r *Result) singleNonGroupSubtree(inG map[string]bool) (*ftree.Node, error) {
	hasG := func(n *ftree.Node) bool {
		found := false
		n.Walk(func(m *ftree.Node) {
			if m.IsAgg() {
				return
			}
			for _, a := range m.Attrs {
				if inG[a] {
					found = true
				}
			}
		})
		return found
	}
	var cands []*ftree.Node
	var walk func(n *ftree.Node)
	walk = func(n *ftree.Node) {
		if !hasG(n) {
			cands = append(cands, n)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, root := range r.Tree().Roots {
		walk(root)
	}
	if len(cands) != 1 {
		return nil, fmt.Errorf("engine: ordering by an aggregate needs a single aggregate subtree; found %d (restructure the group-by attributes into a chain)", len(cands))
	}
	return cands[0], nil
}

// fieldColumns resolves each field of the aggregate node to its column
// of the enumeration schema.
func fieldColumns(fields []ftree.AggField, node *ftree.Node, schema []string) ([]int, error) {
	cols := frep.NodeColumns(node)
	out := make([]int, len(fields))
	for k, f := range fields {
		i := slices.Index(node.Agg.Fields, f)
		if i < 0 {
			return nil, fmt.Errorf("engine: aggregate node %s has no field %s", node.Label(), f)
		}
		if out[k] = slices.Index(schema, cols[i]); out[k] < 0 {
			return nil, fmt.Errorf("engine: cannot locate output column for %s", f)
		}
	}
	return out, nil
}

// attrOf mirrors plan.attrOf for engine-internal node addressing.
func attrOf(n *ftree.Node) string {
	if n.IsAgg() {
		if n.Alias != "" {
			return n.Alias
		}
		return n.Agg.Label()
	}
	return n.Attrs[0]
}
