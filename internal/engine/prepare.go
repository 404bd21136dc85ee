package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/plan"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
)

// storePool recycles arena stores across query executions: a query's
// whole factorised working set lives in one store, so returning it to
// the pool (Result.Close) makes the steady-state hot path allocate only
// on slab high-water-mark growth.
var storePool = sync.Pool{New: func() any { return frep.NewStore() }}

// storeReturns counts pool returns; the cancellation tests use it to
// assert that every error path hands its pooled store back exactly once.
var storeReturns atomic.Int64

func getStore() *frep.Store {
	s := storePool.Get().(*frep.Store)
	s.Reset()
	return s
}

func putStore(s *frep.Store) {
	storeReturns.Add(1)
	storePool.Put(s)
}

// Prepared is a compiled query: the validated logical query, the chosen
// per-relation path orders, and the optimised f-plan. Preparing once and
// executing many times skips validation, path-order search (which plans
// up to 64 candidate forests) and f-plan optimisation on every run —
// the basis of the server's plan cache.
//
// A Prepared may be a binding of a plan template (see Engine.Prepare):
// it then shares Orders and Plan.Cost with every other statement of its
// query shape, and owns only Query and a copy of Plan.Ops carrying its
// own filter constants. It holds no data: the base factorisations it
// executes over belong to the relations (see Exec).
//
// A Prepared is immutable after Prepare and safe for concurrent Exec
// calls: f-plan operators address f-tree nodes by attribute name and
// every execution with operators works in a store of its own.
type Prepared struct {
	// Query is the validated logical query.
	Query *query.Query
	// Orders holds the chosen linear-path attribute order per relation,
	// aligned with Query.Relations. Bindings of one template share it.
	Orders [][]string
	// Plan is the optimised f-plan, reusable across executions.
	Plan *plan.Plan

	eng *Engine
}

// resolveRelations looks up the query's relations in the database,
// checking attribute disjointness, and returns them with their catalogue
// metadata.
func resolveRelations(q *query.Query, db DB) ([]*relation.Relation, []ftree.CatalogRelation, error) {
	rels := make([]*relation.Relation, len(q.Relations))
	var cat []ftree.CatalogRelation
	seen := map[string]string{}
	for i, name := range q.Relations {
		rel, ok := db[name]
		if !ok {
			return nil, nil, fmt.Errorf("engine: unknown relation %q", name)
		}
		for _, a := range rel.Attrs {
			if prev, dup := seen[a]; dup {
				return nil, nil, fmt.Errorf("engine: attribute %q appears in both %s and %s; rename one side", a, prev, name)
			}
			seen[a] = name
		}
		rels[i] = rel
		cat = append(cat, ftree.CatalogRelation{Name: name, Attrs: rel.Attrs, Size: rel.Cardinality()})
	}
	return rels, cat, nil
}

// Prepare validates and optimises the query against the database's
// catalogue without executing it: it picks the cheapest path orders,
// plans once over the resulting forest, and returns a reusable Prepared.
//
// The plan's correctness depends only on the relations' schemas, not
// their contents; cardinalities influence only the cost-based choice
// among equivalent plans. A Prepared therefore stays valid as long as
// the named relations keep their attributes.
//
// The engine memoises what it plans as a template per query shape: the
// query without its filter constants and operators, HAVING, LIMIT and
// OFFSET, none of which the optimisers read. A statement whose shape is
// cached and whose relations are the very pointers the template was
// planned against skips the search and gets a binding (see Prepared);
// relations with other pointers are planned afresh and replace the
// template. Either way the plan is the one a fresh search would choose.
// Because of the memo an Engine must not be copied after first use.
func (e *Engine) Prepare(q *query.Query, db DB) (*Prepared, error) {
	return e.PrepareContext(context.Background(), q, db)
}

// PrepareContext is Prepare with cancellation: the context is threaded
// into the path-order search and the f-plan optimiser, so long
// optimisations (notably the exhaustive Dijkstra search) stop promptly
// when the context fires.
func (e *Engine) PrepareContext(ctx context.Context, q *query.Query, db DB) (*Prepared, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := e.templateKey(q)
	t := e.templates.lookup(key, q, db)
	if t != nil {
		if p := t.bind(e, q); p != nil {
			e.templates.hits.Add(1)
			return p, nil
		}
	}
	e.templates.misses.Add(1)
	p, rels, err := e.search(ctx, q, db)
	if err != nil {
		return nil, err
	}
	// A template whose selections do not line up with q's filters stays
	// as it is; q keeps the plan of its own.
	if t == nil {
		e.templates.lru().Put(key, &planTemplate{rels: rels, orders: p.Orders, plan: p.Plan})
	}
	return p, nil
}

// search runs the path-order search and the f-plan optimiser for q, and
// returns the Prepared together with the relations it was planned
// against.
func (e *Engine) search(ctx context.Context, q *query.Query, db DB) (*Prepared, []*relation.Relation, error) {
	rels, cat, err := resolveRelations(q, db)
	if err != nil {
		return nil, nil, err
	}
	orders, err := e.choosePathOrders(ctx, q, rels, cat)
	if err != nil {
		return nil, nil, err
	}
	f := ftree.New()
	for i := range rels {
		f.NewRelationPath(orders[i]...)
	}
	pl := &plan.Planner{Catalog: cat, PartialAgg: e.PartialAgg, Exhaustive: e.Exhaustive, Ctx: ctx}
	fplan, err := pl.Plan(f, q)
	if err != nil {
		return nil, nil, err
	}
	return &Prepared{Query: q, Orders: orders, Plan: fplan, eng: e}, rels, nil
}

// Exec runs the prepared plan against the database, skipping validation
// and optimisation. Every relation is read from its base in the
// prepared path order: factorised once, on the first execution that
// asks for that order (a loaded or mutable catalogue's stored order is
// the catalogue's own store), and shared by every later execution. A
// relation must therefore not be modified once a query has read it.
// How the bases reach the operators is decided by Engine.run. Exec is
// safe for concurrent use. Call Result.Close when done with the result
// to recycle its store.
func (p *Prepared) Exec(db DB) (*Result, error) {
	return p.ExecContext(context.Background(), db)
}

// ExecContext is Exec with cancellation: the context is checked before
// each base is built and between f-plan operators, and the pooled store
// is returned before the error surfaces, so a cancelled execution leaks
// nothing and caches no base.
func (p *Prepared) ExecContext(ctx context.Context, db DB) (*Result, error) {
	f := ftree.New()
	ins := make([]input, len(p.Query.Relations))
	for i, name := range p.Query.Relations {
		rel, ok := db[name]
		if !ok {
			return nil, fmt.Errorf("engine: unknown relation %q", name)
		}
		f.NewRelationPath(p.Orders[i]...)
		b, err := baseFor(ctx, rel, p.Orders[i])
		if err != nil {
			return nil, err
		}
		ins[i] = b.in
	}
	return p.eng.run(ctx, p.Query, p.Plan, f, ins, p.Orders)
}

// ExecShared is Exec, kept for callers of the name.
func (p *Prepared) ExecShared(db DB) (*Result, error) { return p.Exec(db) }

// ExecSharedContext is ExecContext, kept for callers of the name.
func (p *Prepared) ExecSharedContext(ctx context.Context, db DB) (*Result, error) {
	return p.ExecContext(ctx, db)
}

// input is one factorised input of an execution, never written to: a
// relation's base, or a view's own store, with the roots it contributes
// to the forest.
type input struct {
	store *frep.Store
	roots []frep.NodeID
}

// run executes pl over the inputs, whose roots in turn are the roots of
// tree, and wraps the result; it is the one body behind Exec and
// RunOnView. A bare COUNT(*) is answered from the inputs' ranked
// totals, so it runs no operator. A single input with no operator to
// run is read through an O(1) snapshot whose capacity-clamped slabs
// copy out on any stray append; it is not pooled. Otherwise the first
// input is copied into a pooled store, later ones grafted after it, and
// the operators run there; the store goes back on error, and on
// Result.Close.
func (e *Engine) run(ctx context.Context, q *query.Query, pl *plan.Plan, tree *ftree.Forest, ins []input, orders [][]string) (*Result, error) {
	n, counted := countStar(q, ins)
	ar := &fops.ARel{Tree: tree}
	pooled := len(ins) > 1 || (!counted && len(pl.Ops) > 0)
	if !pooled {
		ar.Store, ar.Roots = ins[0].store.Snapshot(), slices.Clone(ins[0].roots)
	} else {
		st := getStore()
		nr := 0
		for _, in := range ins {
			nr += len(in.roots)
		}
		ar.Store, ar.Roots = st, make([]frep.NodeID, 0, nr)
		for i, in := range ins {
			if i == 0 {
				in.store.CloneInto(st)
				ar.Roots = append(ar.Roots, in.roots...)
				continue
			}
			remap := st.Graft(in.store)
			for _, r := range in.roots {
				ar.Roots = append(ar.Roots, remap(r))
			}
		}
	}
	if ar.IsEmpty() {
		ar.MakeEmpty()
	}
	res := &Result{Query: q, ARel: ar, Plan: pl, eng: e, pooled: pooled, orders: orders}
	if counted {
		res.fastCount = &n
		return res, nil
	}
	if err := pl.ExecuteParallel(ctx, ar, e.par()); err != nil {
		if pooled {
			putStore(ar.Store)
		}
		return nil, err
	}
	noteParallelExec(ar)
	return res, nil
}
