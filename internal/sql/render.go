package sql

import (
	"strconv"
	"strings"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/values"
)

// Render serialises a query back to SQL text accepted by Parse. It is
// the inverse the distributed coordinator relies on to rewrite a parsed
// statement for shard workers — strip or shrink LIMIT/OFFSET, drop
// HAVING, alias aggregates, resume a failed stream at an offset — and
// round-trips: Parse(Render(q)) is structurally identical to q for
// every query in the supported subset.
//
// Rendering is canonical (upper-case keywords, single spaces), so equal
// queries render to equal strings; it is not Normalize, which
// canonicalises unparsed text.
func Render(q *query.Query) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.IsAggregate() {
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g)
		}
		for i, a := range q.Aggregates {
			if i > 0 || len(q.GroupBy) > 0 {
				b.WriteString(", ")
			}
			b.WriteString(renderAggregate(a))
		}
	} else if len(q.Projection) > 0 {
		b.WriteString(strings.Join(q.Projection, ", "))
	} else {
		b.WriteString("*")
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(q.Relations, ", "))

	var conds []string
	for _, e := range q.Equalities {
		conds = append(conds, e.A+" = "+e.B)
	}
	for _, f := range q.Filters {
		conds = append(conds, f.Attr+" "+renderOp(f.Op)+" "+renderValue(f.Const))
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(q.GroupBy, ", "))
	}
	if len(q.Having) > 0 {
		hs := make([]string, len(q.Having))
		for i, h := range q.Having {
			hs[i] = h.Attr + " " + renderOp(h.Op) + " " + renderValue(h.Const)
		}
		b.WriteString(" HAVING ")
		b.WriteString(strings.Join(hs, " AND "))
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Attr)
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if q.Limit > 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.Itoa(q.Limit))
	}
	if q.Offset > 0 {
		b.WriteString(" OFFSET ")
		b.WriteString(strconv.Itoa(q.Offset))
	}
	return b.String()
}

func renderAggregate(a query.Aggregate) string {
	arg := a.Arg
	if arg == "" {
		arg = "*"
	}
	s := strings.ToUpper(a.Fn.String()) + "(" + arg + ")"
	if a.As != "" {
		s += " AS " + a.As
	}
	return s
}

func renderOp(op fops.CmpOp) string {
	switch op {
	case fops.EQ:
		return "="
	case fops.NE:
		return "<>"
	case fops.LT:
		return "<"
	case fops.LE:
		return "<="
	case fops.GT:
		return ">"
	case fops.GE:
		return ">="
	default:
		return "?"
	}
}

// renderValue renders a literal the lexer reads back: decimal integers,
// plain decimal floats (the lexer has no exponent form), single-quoted
// strings with ” escaping.
func renderValue(v values.Value) string {
	switch v.Kind() {
	case values.Int:
		return strconv.FormatInt(v.Int(), 10)
	case values.Float:
		s := strconv.FormatFloat(v.Float(), 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0" // keep the literal a float on re-parse
		}
		return s
	case values.String:
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	default:
		return v.String()
	}
}
