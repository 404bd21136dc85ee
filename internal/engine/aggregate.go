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

// newSortedCursor serves an ORDER BY over aggregate outputs that the
// f-plan could not restructure for (plan.AggregateOrder does not hold:
// the group-by attributes span several branches, or the ordered outputs
// are not one aggregate node's vector order). The grouped output is
// materialised and sorted flat, as a relational engine would.
func (r *Result) newSortedCursor() (rowCursor, error) {
	cmp, err := sortedOutputCmp(r.Query)
	if err != nil {
		return nil, err
	}
	cur, err := r.newGroupedCursor()
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

// newAggOrderCursor enumerates a result whose f-plan ended in the
// ORDER BY-aggregate steps (plan.AggregateOrder): node is the aggregate
// node, and order the ORDER BY list with each ordered aggregate named by
// it. The plan already restructured the tree for that order, so the
// cursor only enumerates.
func (r *Result) newAggOrderCursor(node *ftree.Node, order []string) (rowCursor, error) {
	q := r.Query
	specs := make([]frep.OrderSpec, len(order))
	for i, a := range order {
		specs[i] = frep.OrderSpec{Attr: a, Desc: q.OrderBy[i].Desc}
	}
	en, err := r.ARel.Enumerator(specs)
	if err != nil {
		return nil, err
	}
	low, err := query.Lower(q.Aggregates)
	if err != nil {
		return nil, err
	}
	schema := en.Schema()
	groupIdx, err := columnIndices(schema, q.GroupBy)
	if err != nil {
		return nil, err
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
