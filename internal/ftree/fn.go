package ftree

import (
	"fmt"
	"strings"

	"github.com/factordb/fdb/internal/values"
)

// The aggregate algebra of Section 3.2 as one table. A storable function
// is a commutative monoid: an identity, a ⊕ over the values of one union,
// and scaling by a sibling count when a partial aggregate is lifted over
// a product (Proposition 2). Scaling is n-fold ⊕: multiplication for an
// additive monoid, the identity map for the idempotent MIN and MAX, so
// only additive functions need sibling counts. A composite (AVG, Section
// 3.2.4) is not stored: it lowers onto the storable parts it is built
// from, and a finaliser combines their values. Every consumer reads the
// table, so adding a function is adding a row.

// Fn is an aggregation function. The numbering is part of the view format
// and the plan-template key and must not change.
type Fn uint8

// The aggregation functions: four storable monoids and one composite.
const (
	Count Fn = iota
	Sum
	Min
	Max
	Avg
)

type monoid uint8

const (
	composite monoid = iota // not storable
	additive                // ⊕ = +, scaled by multiplication
	minimum                 // ⊕ = min, idempotent
	maximum                 // ⊕ = max, idempotent
)

type fnRow struct {
	name     string
	monoid   monoid
	identity values.Value // the value over no tuples
	// tuples marks a function of the tuples themselves, taking no
	// argument: each tuple contributes 1 (COUNT).
	tuples bool
	// parts are the storable functions a composite lowers onto, applied
	// to its argument; finalise reads their values at vals[at[k]].
	parts    []Fn
	finalise func(vals []values.Value, at []int) values.Value
}

var fns = [...]fnRow{
	Count: {name: "count", monoid: additive, identity: values.NewInt(0), tuples: true},
	Sum:   {name: "sum", monoid: additive},
	Min:   {name: "min", monoid: minimum},
	Max:   {name: "max", monoid: maximum},
	Avg:   {name: "avg", parts: []Fn{Sum, Count}, finalise: finaliseAvg},
}

// finaliseAvg is SUM/COUNT: NULL over no tuples or a NULL sum.
func finaliseAvg(vals []values.Value, at []int) values.Value {
	sum, n := vals[at[0]], vals[at[1]]
	if sum.IsNull() || n.IsNull() || (n.Kind() == values.Int && n.Int() == 0) {
		return values.NullValue()
	}
	return values.Div(sum, n)
}

// row returns f's row; a number outside the table reads as the zero row
// (no name, not storable).
func (f Fn) row() *fnRow {
	if int(f) < len(fns) {
		return &fns[f]
	}
	return &noRow
}

var noRow fnRow

// String returns the SQL-ish name of the function.
func (f Fn) String() string {
	if r := f.row(); r.name != "" {
		return r.name
	}
	return fmt.Sprintf("fn(%d)", uint8(f))
}

// ParseFn returns the function named name, case-insensitively.
func ParseFn(name string) (Fn, bool) {
	for f := range fns {
		if strings.EqualFold(fns[f].name, name) {
			return Fn(f), true
		}
	}
	return 0, false
}

// Valid reports whether f is a function of the table.
func (f Fn) Valid() bool { return f.row().name != "" }

// Storable reports whether an aggregate node can store f.
func (f Fn) Storable() bool { return f.row().monoid != composite }

// HasArg reports whether f aggregates an argument attribute rather than
// the tuples themselves.
func (f Fn) HasArg() bool { return !f.row().tuples }

// NeedsCount reports whether a partial value of f scales by the
// multiplicity of its siblings when lifted over a product.
func (f Fn) NeedsCount() bool { return f.row().monoid == additive }

// Identity returns f's value over no tuples, the neutral element of ⊕.
func (f Fn) Identity() values.Value { return f.row().identity }

// Combine is ⊕: it merges two partial values of f.
func (f Fn) Combine(a, b values.Value) values.Value {
	f.Fold(&a, b, 1)
	return a
}

// Scale lifts a partial value of f over a product with n tuples on the
// other side: the n-fold ⊕ of v, the identity for n = 0.
func (f Fn) Scale(v values.Value, n int64) values.Value {
	switch {
	case n == 0:
		return f.Identity()
	case f.row().monoid != additive:
		return v
	}
	return values.MulInt(v, n)
}

// Fold sets *acc to Combine(*acc, Scale(v, n)) for n ≥ 1: a value
// represented n times, folded into the running partial in place.
func (f Fn) Fold(acc *values.Value, v values.Value, n int64) {
	switch f.row().monoid {
	case minimum:
		*acc = values.Min(*acc, v)
	case maximum:
		*acc = values.Max(*acc, v)
	default:
		*acc = values.Add(*acc, values.MulInt(v, n))
	}
}

// CountField is the stored field holding an aggregate node's tuple
// count, the multiplicity NeedsCount functions scale by.
func CountField() AggField { return AggField{Fn: Count} }

// Lowering maps aggregate applications (query outputs, possibly
// composite) onto the storable fields the representation evaluates:
// each distinct field once, in first-use order, and per output the
// fields it is finalised from.
type Lowering struct {
	fields []AggField
	outs   []lowered
}

// Fields returns the distinct storable fields to evaluate.
func (l *Lowering) Fields() []AggField { return l.fields }

type lowered struct {
	fn Fn
	at []int // indices into Fields
}

// Lower lowers aggs. A function of the tuples drops its argument:
// COUNT(a) counts tuples, like COUNT(*).
func Lower(aggs []AggField) (*Lowering, error) {
	l := &Lowering{outs: make([]lowered, len(aggs))}
	for i, a := range aggs {
		if !a.Fn.Valid() || (a.Fn.HasArg() && a.Arg == "") {
			return nil, fmt.Errorf("ftree: cannot lower aggregate %s", a)
		}
		parts := a.Fn.row().parts
		if parts == nil {
			parts = []Fn{a.Fn}
		}
		l.outs[i].fn = a.Fn
		for _, p := range parts {
			fl := AggField{Fn: p}
			if p.HasArg() {
				fl.Arg = a.Arg
			}
			k := 0
			for k < len(l.fields) && l.fields[k] != fl {
				k++
			}
			if k == len(l.fields) {
				l.fields = append(l.fields, fl)
			}
			l.outs[i].at = append(l.outs[i].at, k)
		}
	}
	return l, nil
}

// FinalInto writes each output's value into out, reading the evaluated
// fields from vals (aligned with Fields).
func (l *Lowering) FinalInto(out, vals []values.Value) {
	for i, o := range l.outs {
		if fin := fns[o.fn].finalise; fin != nil {
			out[i] = fin(vals, o.at)
		} else {
			out[i] = vals[o.at[0]]
		}
	}
}
