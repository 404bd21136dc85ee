// Package engine implements the FDB query engine: it compiles queries
// with aggregates, group-by, order-by and limit into f-plans (package
// plan), executes them over factorised data (packages fops/frep), and
// enumerates results with constant delay — flat output ("FDB") or
// factorised output ("FDB f/o") per the paper's experimental setup.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/plan"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
)

// DB is a catalogue of named flat relations. A query attaches its base
// factorisations to each relation it reads (see Prepared.Exec), so a
// relation must not be modified once a query has read it.
type DB map[string]*relation.Relation

// Engine evaluates queries over flat relations or factorised views.
// Every restructuring a query needs is an operator of its f-plan,
// including the γ/ρ/χ steps of an ORDER BY over an aggregate output
// (plan.AggregateOrder), so the planner costs them and plan templates
// cache them; enumerating a Result runs no operator.
type Engine struct {
	// PartialAgg enables eager partial aggregation (on by default via
	// New); disabling it is the lazy-aggregation ablation.
	PartialAgg bool
	// Exhaustive uses the Dijkstra planner instead of the greedy
	// heuristic.
	Exhaustive bool
	// Parallelism bounds the intra-query parallelism: f-plan operators
	// below a root fan their occurrence loops over contiguous segments
	// of the root union, and a flat projection with no OFFSET and no
	// LIMIT below the enumeration floor drains per-segment workers in
	// root order — so results are identical to serial execution at any
	// setting. Aggregate evaluation and every other cursor run
	// serially. 0 means GOMAXPROCS; 1 disables intra-query parallelism.
	// Small inputs execute serially regardless (see
	// fops.MinParallelRebuildValues).
	Parallelism int

	// templates memoises plans by query shape (see Prepare); it makes an
	// Engine unsafe to copy after first use.
	templates templateMemo
}

// par resolves the engine's effective intra-query parallelism.
func (e *Engine) par() int {
	p := e.Parallelism
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// New returns an engine with the paper's default configuration.
func New() *Engine { return &Engine{PartialAgg: true} }

// Result is an evaluated query: the factorised output plus everything
// needed to enumerate flat tuples in the requested order.
type Result struct {
	Query *query.Query
	// ARel is the factorised result ("FDB f/o" output). For aggregation
	// queries it contains the group-by attributes and (possibly several)
	// partial-aggregate leaves. When operators ran, or several inputs
	// were assembled, its store is pooled — over relations and views
	// alike — and valid only until Close; Clone it to keep it longer.
	ARel *fops.ARel
	// Plan is the executed f-plan.
	Plan *plan.Plan

	eng *Engine
	// pooled marks an ARel whose store was taken from the engine's
	// store pool; Close returns it.
	pooled bool
	// closed marks a Result whose Close has run: its store may already
	// be recycled into another query, so enumeration APIs refuse with
	// ErrClosed instead of touching freed slabs.
	closed bool
	// closers tracks open parallel cursors; Close joins their segment
	// workers before recycling the store.
	closers []*parCursor
	// orders are the linear-path attribute orders the base relations
	// were factorised in, aligned with Query.Relations; nil for a Result
	// over a view.
	orders [][]string
	// fastCount, when set, is the precomputed answer of a bare COUNT(*)
	// query taken from the inputs' ranked root counts (countStar);
	// enumeration yields this single row and the aggregation plan was
	// never executed.
	fastCount *int64
}

// dropCloser forgets a parallel cursor that has been closed.
func (r *Result) dropCloser(c *parCursor) {
	for i, x := range r.closers {
		if x == c {
			r.closers = append(r.closers[:i], r.closers[i+1:]...)
			return
		}
	}
}

// Tree returns the f-tree of the factorised result.
func (r *Result) Tree() *ftree.Forest { return r.ARel.Tree }

// Singletons returns the factorised result's size in singletons.
func (r *Result) Singletons() int { return r.ARel.Singletons() }

// Close releases pooled per-query resources (the arena store backing
// ARel, when it was copied into one from the engine's pool; an
// operator-free execution over one relation or view, and a bare
// COUNT(*) answered from one input's ranks, read the input itself and
// pool nothing). The Result — including ARel and open Rows — must not be
// used afterwards: enumeration APIs return ErrClosed once Close has
// run, because the recycled store may already back another query.
// Close is idempotent — any call after the first is a no-op — and
// optional: an unclosed Result is reclaimed by the garbage collector
// like any other value; closing merely recycles the slabs for the next
// query.
func (r *Result) Close() {
	if r.closed {
		return
	}
	r.closed = true
	// Join any parallel cursor workers first: they read the store, which
	// must not be recycled under them.
	for _, c := range r.closers {
		c.close()
	}
	r.closers = nil
	if r.pooled && r.ARel != nil {
		st := r.ARel.Store
		r.ARel = nil
		r.pooled = false
		putStore(st)
	}
}

// Run evaluates the query against flat base relations: each input is
// factorised as a linear path, the product forms the initial forest, and
// the f-plan performs selections, aggregation and restructuring.
//
// The attribute order inside each relation's path changes which
// factorisations the plan passes through (a join attribute buried at the
// bottom of a path forces replication), so Run explores a small set of
// candidate orders per relation — the original order, one rotation per
// join attribute, and one led by the query's ORDER BY (else GROUP BY)
// attributes of that relation — and keeps the combination whose plan has
// the lowest size-bound cost (the paper's cost metric, Section 5). A
// path already in the requested order needs no restructuring, so its
// plan sums fewer intermediate trees and wins on cost by itself.
func (e *Engine) Run(q *query.Query, db DB) (*Result, error) {
	return e.RunContext(context.Background(), q, db)
}

// RunContext is Run with cancellation: the context is honoured during
// path-order search, f-plan optimisation and execution, and carries
// into enumeration when the caller uses Result.Rows with the same
// context.
func (e *Engine) RunContext(ctx context.Context, q *query.Query, db DB) (*Result, error) {
	p, err := e.PrepareContext(ctx, q, db)
	if err != nil {
		return nil, err
	}
	return p.ExecContext(ctx, db)
}

// choosePathOrders plans the query over every combination of candidate
// path orders (capped) and returns the attribute orders of the cheapest
// plan. The context is checked between combinations.
func (e *Engine) choosePathOrders(ctx context.Context, q *query.Query, rels []*relation.Relation, cat []ftree.CatalogRelation) ([][]string, error) {
	joinAttr := map[string]bool{}
	for _, eq := range q.Equalities {
		joinAttr[eq.A] = true
		joinAttr[eq.B] = true
	}
	lead := make([]string, 0, len(q.OrderBy)+len(q.GroupBy))
	for _, o := range q.OrderBy {
		lead = append(lead, o.Attr)
	}
	if len(lead) == 0 {
		lead = append(lead, q.GroupBy...)
	}
	const maxCombos = 64
	cands := make([][][]string, len(rels))
	combos := 0
	// Too many combinations: drop the order-led candidates first, so a
	// query keeps the search it had without them.
	for _, lead := range [][]string{lead, nil} {
		combos = 1
		for i, rel := range rels {
			cands[i] = pathCandidates(rel.Attrs, joinAttr, lead)
			combos *= len(cands[i])
		}
		if combos <= maxCombos {
			break
		}
	}
	if combos > maxCombos {
		// Still too many: keep only the first candidate (join attribute
		// first) per relation.
		for i := range cands {
			cands[i] = cands[i][:1]
		}
	}
	pl := &plan.Planner{Catalog: cat, PartialAgg: e.PartialAgg, Ctx: ctx}
	var best [][]string
	bestCost := 0.0
	idx := make([]int, len(rels))
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f := ftree.New()
		orders := make([][]string, len(rels))
		for i := range rels {
			orders[i] = cands[i][idx[i]]
			f.NewRelationPath(orders[i]...)
		}
		if fp, err := pl.Plan(f, q); err == nil {
			if best == nil || fp.Cost < bestCost {
				best = orders
				bestCost = fp.Cost
			}
		}
		// Next combination.
		k := 0
		for k < len(idx) {
			idx[k]++
			if idx[k] < len(cands[k]) {
				break
			}
			idx[k] = 0
			k++
		}
		if k == len(idx) {
			break
		}
	}
	if best == nil {
		// A cancellation mid-search surfaces as the context's error, not
		// as a missing plan.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("engine: no executable plan found for %s", q)
	}
	return best, nil
}

// pathCandidates returns candidate linear-path orders for one relation:
// for each join attribute, a rotation with it first (rest in original
// order), then the original order, then the order led by the longest
// prefix of lead (the query's ORDER BY keys, or its GROUP BY list when
// it has no ORDER BY) whose attributes all belong to the relation, the
// rest in original order. A path that already follows the requested
// order enumerates it with no restructuring. Duplicates are removed, so
// on equal cost the earlier candidate wins.
func pathCandidates(attrs []string, joinAttr map[string]bool, lead []string) [][]string {
	var out [][]string
	seen := map[string]bool{}
	add := func(order []string) {
		key := ""
		for _, a := range order {
			key += a + "|"
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, order)
		}
	}
	rotate := func(first []string) []string {
		order := append(make([]string, 0, len(attrs)), first...)
		for _, a := range attrs {
			if !slices.Contains(first, a) {
				order = append(order, a)
			}
		}
		return order
	}
	for _, j := range attrs {
		if joinAttr[j] {
			add(rotate([]string{j}))
		}
	}
	add(append([]string{}, attrs...))
	n := 0
	for n < len(lead) && slices.Contains(attrs, lead[n]) && !slices.Contains(lead[:n], lead[n]) {
		n++
	}
	if n > 0 {
		add(rotate(lead[:n]))
	}
	return out
}

// RunOnView evaluates a query (no joins) against a materialised
// factorised view. The view is an input like a relation's base (see
// Engine.run): a query with operators copies it into a pooled store and
// runs them there, one without reads it through an O(1) snapshot, and a
// bare COUNT(*) over a ranked view reads its totals. The view is never
// modified, so it is shared untouched across any number of concurrent
// queries; it must not be modified once a query has read it. cat
// supplies relation sizes for the cost model and may be nil.
func (e *Engine) RunOnView(q *query.Query, view *fops.ARel, cat []ftree.CatalogRelation) (*Result, error) {
	return e.RunOnViewContext(context.Background(), q, view, cat)
}

// RunOnViewContext is RunOnView with cancellation: the context is
// honoured by the f-plan optimiser and checked between f-plan
// operators, so a long view query can be abandoned mid-search or
// mid-execution.
func (e *Engine) RunOnViewContext(ctx context.Context, q *query.Query, view *fops.ARel, cat []ftree.CatalogRelation) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.Equalities) > 0 {
		return nil, fmt.Errorf("engine: RunOnView does not support equality selections; materialise them into the view")
	}
	tree, _ := view.Tree.Clone()
	pl := &plan.Planner{Catalog: cat, PartialAgg: e.PartialAgg, Exhaustive: e.Exhaustive, Ctx: ctx}
	fplan, err := pl.Plan(tree, q)
	if err != nil {
		return nil, err
	}
	return e.run(ctx, q, fplan, tree, []input{{store: view.Store, roots: view.Roots}}, nil)
}

// orderOnAggregate reports whether some order item references an
// aggregate output rather than a group-by attribute.
func orderOnAggregate(q *query.Query) bool {
	inG := map[string]bool{}
	for _, g := range q.GroupBy {
		inG[g] = true
	}
	for _, o := range q.OrderBy {
		if !inG[o.Attr] {
			return true
		}
	}
	return false
}

// ForEach streams the query's output tuples in the requested order,
// applying HAVING, OFFSET and LIMIT. fn returns false to stop early.
// The output schema is Query.OutputAttrs(). It is a thin wrapper over
// the cursor path (Result.Rows); the tuple passed to fn is reused
// between calls — clone it to retain.
func (r *Result) ForEach(fn func(relation.Tuple) bool) error {
	rows, err := r.Rows(context.Background())
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
		if !fn(rows.Tuple()) {
			return nil
		}
	}
	return rows.Err()
}

// Schema returns the effective output column names: OutputAttrs when the
// query projects or aggregates explicitly, otherwise (SELECT *) the flat
// schema of the factorised result.
func (r *Result) Schema() []string {
	if outs := r.Query.OutputAttrs(); len(outs) > 0 {
		return outs
	}
	return frep.FlatSchema(r.Tree())
}

// Relation materialises the output as a relation (in enumeration order).
func (r *Result) Relation() (*relation.Relation, error) {
	var rows []relation.Tuple
	err := r.ForEach(func(t relation.Tuple) bool {
		rows = append(rows, t.Clone())
		return true
	})
	if err != nil {
		return nil, err
	}
	return relation.New("result", r.Schema(), rows)
}

// Count streams the output and returns the number of tuples (after HAVING
// and LIMIT); used by benchmarks to force full enumeration.
func (r *Result) Count() (int, error) {
	n := 0
	err := r.ForEach(func(relation.Tuple) bool {
		n++
		return true
	})
	return n, err
}

// Explain renders the path orders the base relations were factorised in
// (for a Result of a Prepared), the executed f-plan, the resulting
// f-tree and the representation size, for EXPLAIN-style output.
func (r *Result) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query:  %s\n", r.Query)
	if r.orders != nil {
		paths := make([]string, len(r.orders))
		for i, name := range r.Query.Relations {
			paths[i] = name + "(" + strings.Join(r.orders[i], ", ") + ")"
		}
		fmt.Fprintf(&b, "path orders: %s\n", strings.Join(paths, ", "))
	}
	if len(r.Plan.Ops) == 0 {
		b.WriteString("f-plan: (no operators — the input factorisation already supports the query)\n")
	} else {
		fmt.Fprintf(&b, "f-plan: %s\n", r.Plan)
	}
	fmt.Fprintf(&b, "cost:   %.0f (size-bound metric)\n", r.Plan.Cost)
	fmt.Fprintf(&b, "result f-tree:\n%s", indent(r.Tree().String(), "  "))
	fmt.Fprintf(&b, "result size: %d singletons\n", r.Singletons())
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}

func columnIndices(schema, want []string) ([]int, error) {
	idx := make([]int, len(want))
	for i, w := range want {
		idx[i] = -1
		for j, s := range schema {
			if s == w {
				idx[i] = j
				break
			}
		}
		if idx[i] < 0 {
			return nil, fmt.Errorf("engine: output attribute %q not in schema %v", w, schema)
		}
	}
	return idx, nil
}
