package engine

import (
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/factordb/fdb/internal/plan"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/server/cache"
)

// templateCapacity bounds the engine's plan-template memo. It counts
// query shapes, not statements: the paper's 13 shapes with one filtered
// attribute each take 38 entries.
const templateCapacity = 64

// planTemplate is the constant-free part of a Prepared: the path orders
// and f-plan one query shape got against one generation of relations.
// The plan's SelectConstOps carry the constants of the statement that
// was planned; a binding replaces them.
type planTemplate struct {
	rels   []*relation.Relation
	orders [][]string
	plan   *plan.Plan
}

// templateMemo is the engine's bounded LRU of plan templates, keyed by
// query shape (templateKey). The size-bound cost the optimisers minimise
// depends on the shape and the relations, never on a filter constant, a
// comparison operator, HAVING or LIMIT/OFFSET, so a statement of a known
// shape against the same relations gets exactly the plan a fresh search
// would find. The LRU is created on first use, so the zero Engine works.
type templateMemo struct {
	once         sync.Once
	entries      *cache.LRU
	hits, misses atomic.Uint64
}

func (m *templateMemo) lru() *cache.LRU {
	m.once.Do(func() { m.entries = cache.New(templateCapacity) })
	return m.entries
}

// lookup returns the template cached under key if it was planned
// against exactly the relations db now holds under q's names. Pointer
// identity is the test: a mutable catalogue publishes a new pointer per
// changed relation.
func (m *templateMemo) lookup(key string, q *query.Query, db DB) *planTemplate {
	v, ok := m.lru().Get(key)
	if !ok {
		return nil
	}
	t := v.(*planTemplate)
	for i, name := range q.Relations {
		if db[name] != t.rels[i] {
			return nil
		}
	}
	return t
}

// bind returns a Prepared for q that shares t's path orders and plan
// cost, with q's filter operators and constants in the
// plan's constant selections. Both planners emit one SelectConstOp per
// filter, in filter order; bind returns nil when t's plan does not line
// up with q's filters that way.
func (t *planTemplate) bind(e *Engine, q *query.Query) *Prepared {
	ops := make([]plan.Op, len(t.plan.Ops))
	k := 0
	for i, op := range t.plan.Ops {
		if sel, ok := op.(plan.SelectConstOp); ok {
			if k == len(q.Filters) || sel.Attr != q.Filters[k].Attr {
				return nil
			}
			f := q.Filters[k]
			op = plan.SelectConstOp{Attr: f.Attr, Cmp: f.Op, Const: f.Const}
			k++
		}
		ops[i] = op
	}
	if k != len(q.Filters) {
		return nil
	}
	return &Prepared{Query: q, Orders: t.orders, Plan: &plan.Plan{Ops: ops, Cost: t.plan.Cost}, eng: e}
}

// templateKey renders what the planner reads of q under e's settings:
// relations, equalities, filtered attributes, GROUP BY, aggregates,
// projection and ORDER BY, plus PartialAgg and Exhaustive. Filter
// constants and operators, HAVING, LIMIT and OFFSET are left out. Every
// name is quoted and every list tagged, so two shapes never share a key.
func (e *Engine) templateKey(q *query.Query) string {
	b := make([]byte, 0, 160)
	b = strconv.AppendBool(b, e.PartialAgg)
	b = strconv.AppendBool(b, e.Exhaustive)
	b = append(b, 'R')
	for _, r := range q.Relations {
		b = strconv.AppendQuote(b, r)
	}
	b = append(b, 'E')
	for _, eq := range q.Equalities {
		b = strconv.AppendQuote(strconv.AppendQuote(b, eq.A), eq.B)
	}
	b = append(b, 'F')
	for _, f := range q.Filters {
		b = strconv.AppendQuote(b, f.Attr)
	}
	b = append(b, 'G')
	for _, g := range q.GroupBy {
		b = strconv.AppendQuote(b, g)
	}
	b = append(b, 'A')
	for _, a := range q.Aggregates {
		b = append(b, '0'+byte(a.Fn))
		b = strconv.AppendQuote(strconv.AppendQuote(b, a.Arg), a.As)
	}
	b = append(b, 'P')
	for _, p := range q.Projection {
		b = strconv.AppendQuote(b, p)
	}
	b = append(b, 'O')
	for _, o := range q.OrderBy {
		b = strconv.AppendQuote(b, o.Attr)
		if o.Desc {
			b = append(b, '-')
		}
	}
	return string(b)
}

// PlanTemplateStats reports the plan-template memo behind Prepare: Hits
// counts statements bound to a cached template, Misses statements
// planned afresh; Size and Capacity count query shapes.
func (e *Engine) PlanTemplateStats() cache.Stats {
	s := e.templates.lru().Stats()
	s.Hits, s.Misses = e.templates.hits.Load(), e.templates.misses.Load()
	return s
}
