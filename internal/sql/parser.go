package sql

import (
	"fmt"
	"strconv"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/values"
)

// Parse compiles one SELECT statement into the logical query model.
func Parse(input string) (*query.Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf(p.peek(), "unexpected %q after statement", p.peek().text)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// errf builds a parse error carrying the byte position of the offending
// token, so callers see where in the statement the parse failed.
func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("sql: %s at position %d", fmt.Sprintf(format, args...), t.pos+1)
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return p.errf(t, "expected %s, got %q", kw, t.text)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.next()
	if t.kind != tokSymbol || t.text != sym {
		return p.errf(t, "expected %q, got %q", sym, t.text)
	}
	return nil
}

// parseCount parses the non-negative integer operand of LIMIT or OFFSET.
// LIMIT 0 is rejected: query.Query.Limit uses 0 for "no limit", so
// accepting it would return every row.
func (p *parser) parseCount(clause string) (int, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, p.errf(t, "expected number after %s, got %q", clause, t.text)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 0 {
		return 0, p.errf(t, "invalid %s %q", clause, t.text)
	}
	if n == 0 && clause == "LIMIT" {
		return 0, p.errf(t, "LIMIT 0 is not supported (LIMIT must be at least 1)")
	}
	return n, nil
}

// selectItem is one SELECT-list entry before classification.
type selectItem struct {
	attr string // plain attribute, or
	agg  *query.Aggregate
}

func (p *parser) parseSelect() (*query.Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &query.Query{}
	star := false
	var items []selectItem
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		p.next()
		star = true
	} else {
		for {
			it, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			items = append(items, it)
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		t := p.next()
		if t.kind != tokIdent {
			return nil, p.errf(t, "expected relation name, got %q", t.text)
		}
		q.Relations = append(q.Relations, t.text)
		if p.peek().kind == tokSymbol && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}

	if p.peek().kind == tokKeyword && p.peek().text == "WHERE" {
		p.next()
		for {
			if err := p.parseCondition(q); err != nil {
				return nil, err
			}
			if p.peek().kind == tokKeyword && p.peek().text == "AND" {
				p.next()
				continue
			}
			break
		}
	}

	if p.peek().kind == tokKeyword && p.peek().text == "GROUP" {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, p.errf(t, "expected attribute in GROUP BY, got %q", t.text)
			}
			q.GroupBy = append(q.GroupBy, t.text)
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}

	if p.peek().kind == tokKeyword && p.peek().text == "HAVING" {
		p.next()
		for {
			f, err := p.parseHavingCond()
			if err != nil {
				return nil, err
			}
			q.Having = append(q.Having, f)
			if p.peek().kind == tokKeyword && p.peek().text == "AND" {
				p.next()
				continue
			}
			break
		}
	}

	if p.peek().kind == tokKeyword && p.peek().text == "ORDER" {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, p.errf(t, "expected attribute in ORDER BY, got %q", t.text)
			}
			item := query.OrderItem{Attr: t.text}
			if p.peek().kind == tokKeyword && (p.peek().text == "ASC" || p.peek().text == "DESC") {
				item.Desc = p.next().text == "DESC"
			}
			q.OrderBy = append(q.OrderBy, item)
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}

	if p.peek().kind == tokKeyword && p.peek().text == "LIMIT" {
		p.next()
		n, err := p.parseCount("LIMIT")
		if err != nil {
			return nil, err
		}
		q.Limit = n
	}

	if p.peek().kind == tokKeyword && p.peek().text == "OFFSET" {
		p.next()
		n, err := p.parseCount("OFFSET")
		if err != nil {
			return nil, err
		}
		q.Offset = n
	}

	// Classify the select list.
	hasAgg := false
	for _, it := range items {
		if it.agg != nil {
			hasAgg = true
		}
	}
	switch {
	case hasAgg:
		inG := map[string]bool{}
		for _, g := range q.GroupBy {
			inG[g] = true
		}
		for _, it := range items {
			if it.agg != nil {
				q.Aggregates = append(q.Aggregates, *it.agg)
				continue
			}
			if !inG[it.attr] {
				return nil, fmt.Errorf("sql: attribute %q must appear in GROUP BY", it.attr)
			}
		}
	case star:
		// Projection empty = all attributes.
	default:
		if len(q.GroupBy) > 0 {
			return nil, fmt.Errorf("sql: GROUP BY without aggregates in the SELECT list")
		}
		for _, it := range items {
			q.Projection = append(q.Projection, it.attr)
		}
	}
	return q, nil
}

func (p *parser) parseSelectItem() (selectItem, error) {
	t := p.next()
	if t.kind == tokKeyword {
		fn, ok := ftree.ParseFn(t.text)
		if !ok {
			return selectItem{}, p.errf(t, "unexpected keyword %q in SELECT list", t.text)
		}
		if err := p.expectSymbol("("); err != nil {
			return selectItem{}, err
		}
		agg := &query.Aggregate{Fn: fn}
		arg := p.next()
		switch {
		case arg.kind == tokSymbol && arg.text == "*" && !fn.HasArg():
			// count(*)
		case arg.kind == tokIdent:
			agg.Arg = arg.text
		default:
			return selectItem{}, p.errf(arg, "bad aggregate argument %q", arg.text)
		}
		if err := p.expectSymbol(")"); err != nil {
			return selectItem{}, err
		}
		if p.peek().kind == tokKeyword && p.peek().text == "AS" {
			p.next()
			alias := p.next()
			if alias.kind != tokIdent {
				return selectItem{}, p.errf(alias, "expected alias after AS, got %q", alias.text)
			}
			agg.As = alias.text
		}
		return selectItem{agg: agg}, nil
	}
	if t.kind != tokIdent {
		return selectItem{}, p.errf(t, "expected attribute or aggregate, got %q", t.text)
	}
	return selectItem{attr: t.text}, nil
}

func parseOp(text string) (fops.CmpOp, error) {
	switch text {
	case "=":
		return fops.EQ, nil
	case "<>", "!=":
		return fops.NE, nil
	case "<":
		return fops.LT, nil
	case "<=":
		return fops.LE, nil
	case ">":
		return fops.GT, nil
	case ">=":
		return fops.GE, nil
	default:
		return 0, fmt.Errorf("sql: unknown operator %q", text)
	}
}

func (p *parser) parseCondition(q *query.Query) error {
	lhs := p.next()
	if lhs.kind != tokIdent {
		return p.errf(lhs, "expected attribute in WHERE, got %q", lhs.text)
	}
	opTok := p.next()
	if opTok.kind != tokSymbol {
		return p.errf(opTok, "expected comparison operator, got %q", opTok.text)
	}
	op, err := parseOp(opTok.text)
	if err != nil {
		return p.errf(opTok, "unknown operator %q", opTok.text)
	}
	rhs := p.next()
	switch rhs.kind {
	case tokIdent:
		if op != fops.EQ {
			return p.errf(opTok, "only equality is supported between attributes (%s %s %s)", lhs.text, opTok.text, rhs.text)
		}
		q.Equalities = append(q.Equalities, query.Equality{A: lhs.text, B: rhs.text})
	case tokNumber, tokString:
		q.Filters = append(q.Filters, query.Filter{Attr: lhs.text, Op: op, Const: literal(rhs)})
	default:
		return p.errf(rhs, "expected attribute or literal, got %q", rhs.text)
	}
	return nil
}

func (p *parser) parseHavingCond() (query.Filter, error) {
	lhs := p.next()
	if lhs.kind != tokIdent {
		return query.Filter{}, p.errf(lhs, "expected aggregate alias in HAVING, got %q", lhs.text)
	}
	opTok := p.next()
	op, err := parseOp(opTok.text)
	if err != nil {
		return query.Filter{}, p.errf(opTok, "unknown operator %q", opTok.text)
	}
	rhs := p.next()
	if rhs.kind != tokNumber && rhs.kind != tokString {
		return query.Filter{}, p.errf(rhs, "expected literal in HAVING, got %q", rhs.text)
	}
	return query.Filter{Attr: lhs.text, Op: op, Const: literal(rhs)}, nil
}

func literal(t token) values.Value {
	if t.kind == tokString {
		return values.NewString(t.text)
	}
	return values.Parse(t.text)
}
