// Package query defines the logical query model of Section 2: queries
// with selections (equalities between attributes and comparisons with
// constants), projections, joins (as products plus equality selections),
// aggregation ϖ_{G;α←F} with group-by, ordering o_L with ascending or
// descending attributes, limit λ_k, and HAVING as a post-selection over
// aggregate outputs.
package query

import (
	"fmt"
	"strings"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/values"
)

// AggFn is an aggregation function; its algebra is the table in ftree.
type AggFn = ftree.Fn

// The supported aggregation functions.
const (
	Count = ftree.Count
	Sum   = ftree.Sum
	Min   = ftree.Min
	Max   = ftree.Max
	Avg   = ftree.Avg
)

// Aggregate is one aggregation α ← F(A) in the query's ϖ operator.
type Aggregate struct {
	Fn  AggFn
	Arg string // argument attribute; empty for count(*)
	As  string // output attribute name α
}

// String renders e.g. "sum(price) AS revenue".
func (a Aggregate) String() string {
	s := a.apply()
	if a.As != "" {
		s += " AS " + a.As
	}
	return s
}

// OutName returns the output attribute name: the alias if given, else the
// rendered function application.
func (a Aggregate) OutName() string {
	if a.As != "" {
		return a.As
	}
	return a.apply()
}

// apply renders the function application, e.g. "count(*)".
func (a Aggregate) apply() string {
	arg := a.Arg
	if arg == "" {
		arg = "*"
	}
	return fmt.Sprintf("%s(%s)", a.Fn, arg)
}

// Lower lowers aggs onto the stored fields of the factorised
// representation; see ftree.Lower.
func Lower(aggs []Aggregate) (*ftree.Lowering, error) {
	apps := make([]ftree.AggField, len(aggs))
	for i, a := range aggs {
		apps[i] = ftree.AggField{Fn: a.Fn, Arg: a.Arg}
	}
	return ftree.Lower(apps)
}

// Equality is an equality selection A = B between two attributes
// (including join conditions).
type Equality struct {
	A, B string
}

// Filter is a selection with a constant, σ_{Attr op Const}.
type Filter struct {
	Attr  string
	Op    fops.CmpOp
	Const values.Value
}

// OrderItem is one entry of the order-by list, with direction.
type OrderItem struct {
	Attr string
	Desc bool
}

// String renders e.g. "price DESC".
func (o OrderItem) String() string {
	if o.Desc {
		return o.Attr + " DESC"
	}
	return o.Attr
}

// Query is the logical query: a product of named relations restricted by
// equality and constant selections, followed by either a projection (SPJ
// queries) or a grouped aggregation, then ordering, a HAVING-style
// post-selection, and a limit.
type Query struct {
	// Relations names the inputs (interpreted by the engine against its
	// catalogue or a materialised factorised view).
	Relations []string
	// Equalities are attribute equalities (join conditions).
	Equalities []Equality
	// Filters are comparisons with constants.
	Filters []Filter
	// GroupBy lists the grouping attributes G; meaningful only with
	// Aggregates.
	GroupBy []string
	// Aggregates, when non-empty, makes this an aggregation query with
	// output schema GroupBy ++ aggregate outputs.
	Aggregates []Aggregate
	// Projection lists output attributes for non-aggregate queries; empty
	// means all attributes.
	Projection []string
	// OrderBy is the o_L list.
	OrderBy []OrderItem
	// Having are post-selections over aggregate output names.
	Having []Filter
	// Limit is λ_k; 0 means no limit.
	Limit int
	// Offset is the number of leading output tuples (after HAVING, in
	// the requested order) to skip before emitting; 0 means none. The
	// engine skips them in the enumerator without materialising them.
	Offset int
}

// IsAggregate reports whether the query has an aggregation operator.
func (q *Query) IsAggregate() bool { return len(q.Aggregates) > 0 }

// OutputAttrs returns the query's output attribute names in order.
func (q *Query) OutputAttrs() []string {
	if q.IsAggregate() {
		out := append([]string{}, q.GroupBy...)
		for _, a := range q.Aggregates {
			out = append(out, a.OutName())
		}
		return out
	}
	return append([]string{}, q.Projection...)
}

// Validate performs structural checks that do not need a catalogue:
// aggregate arguments present, group-by only with aggregates, order-by
// attributes among outputs, having only on aggregate outputs.
func (q *Query) Validate() error {
	if len(q.Relations) == 0 {
		return fmt.Errorf("query: no input relations")
	}
	if len(q.GroupBy) > 0 && !q.IsAggregate() {
		return fmt.Errorf("query: GROUP BY without aggregates")
	}
	for _, a := range q.Aggregates {
		if !a.Fn.Valid() {
			return fmt.Errorf("query: unknown aggregation function %s", a.Fn)
		}
		if a.Fn.HasArg() && a.Arg == "" {
			return fmt.Errorf("query: %s needs an argument attribute", a.Fn)
		}
	}
	outs := map[string]bool{}
	for _, a := range q.OutputAttrs() {
		outs[a] = true
	}
	if q.IsAggregate() {
		for _, o := range q.OrderBy {
			if !outs[o.Attr] {
				return fmt.Errorf("query: ORDER BY %s is not an output attribute", o.Attr)
			}
		}
		aggOuts := map[string]bool{}
		for _, a := range q.Aggregates {
			aggOuts[a.OutName()] = true
		}
		for _, h := range q.Having {
			if !aggOuts[h.Attr] {
				return fmt.Errorf("query: HAVING references %q, not an aggregate output", h.Attr)
			}
		}
	} else if len(q.Having) > 0 {
		return fmt.Errorf("query: HAVING without aggregates")
	}
	if q.Limit < 0 {
		return fmt.Errorf("query: negative limit")
	}
	if q.Offset < 0 {
		return fmt.Errorf("query: negative offset")
	}
	return nil
}

// String renders the query in the paper's algebraic notation.
func (q *Query) String() string {
	var b strings.Builder
	if q.Limit > 0 || q.Offset > 0 {
		// λ_k with an optional skip: λ5+20 reads "skip 20, take 5".
		b.WriteString("λ")
		if q.Limit > 0 {
			fmt.Fprintf(&b, "%d", q.Limit)
		}
		if q.Offset > 0 {
			fmt.Fprintf(&b, "+%d", q.Offset)
		}
		b.WriteString("(")
	}
	if len(q.OrderBy) > 0 {
		items := make([]string, len(q.OrderBy))
		for i, o := range q.OrderBy {
			items[i] = o.String()
		}
		fmt.Fprintf(&b, "o_{%s}(", strings.Join(items, ","))
	}
	if q.IsAggregate() {
		aggs := make([]string, len(q.Aggregates))
		for i, a := range q.Aggregates {
			aggs[i] = a.String()
		}
		fmt.Fprintf(&b, "ϖ_{%s; %s}", strings.Join(q.GroupBy, ","), strings.Join(aggs, ", "))
	} else if len(q.Projection) > 0 {
		fmt.Fprintf(&b, "π_{%s}", strings.Join(q.Projection, ","))
	}
	var conds []string
	for _, e := range q.Equalities {
		conds = append(conds, e.A+"="+e.B)
	}
	for _, f := range q.Filters {
		conds = append(conds, fmt.Sprintf("%s%s%s", f.Attr, f.Op, f.Const))
	}
	if len(conds) > 0 {
		fmt.Fprintf(&b, "σ_{%s}", strings.Join(conds, ","))
	}
	fmt.Fprintf(&b, "(%s)", strings.Join(q.Relations, " × "))
	if len(q.OrderBy) > 0 {
		b.WriteString(")")
	}
	if q.Limit > 0 || q.Offset > 0 {
		b.WriteString(")")
	}
	return b.String()
}
