package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/factordb/fdb/internal/catalog"
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
// executes over belong to the registered relations (see Register).
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
// and optimisation. A registered relation (see Register: loaded and
// mutable catalogues and the server's databases are) is immutable and
// read from its base in the prepared path order, factorised once and
// shared by every execution; an unregistered relation is factorised per
// execution, so it may be modified in place between calls. One
// registered relation with no f-plan operators is enumerated on its
// base itself, with no pooled store; otherwise the first base is copied
// into a pooled store, later ones grafted after it, and the operators
// run there. Exec is safe for concurrent use. Call Result.Close when
// done with the result to recycle its store.
func (p *Prepared) Exec(db DB) (*Result, error) {
	return p.ExecContext(context.Background(), db)
}

// ExecContext is Exec with cancellation: the context is checked before
// each base is built and between f-plan operators, and the pooled store
// is returned before the error surfaces, so a cancelled execution leaks
// nothing and caches no base.
func (p *Prepared) ExecContext(ctx context.Context, db DB) (*Result, error) {
	n := len(p.Query.Relations)
	f := ftree.New()
	bs := make([]*catalog.Fact, n)
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
		bs[i] = b
	}
	if n == 1 && bs[0] != nil && len(p.Plan.Ops) == 0 {
		// No operator writes into the store, so the execution reads the
		// base itself: an O(1) view whose capacity-clamped slabs copy out
		// on any stray append. It is not pooled.
		return p.finish(ctx, &fops.ARel{Tree: f, Store: bs[0].Store.Snapshot(), Roots: []frep.NodeID{bs[0].Root}}, false)
	}
	st := getStore()
	roots := make([]frep.NodeID, n)
	built := false
	for i, b := range bs {
		switch {
		case b == nil:
			if err := ctx.Err(); err != nil {
				putStore(st)
				return nil, err
			}
			sub := ftree.New()
			sub.NewRelationPath(p.Orders[i]...)
			rs, err := frep.BuildStoreUnchecked(st, db[p.Query.Relations[i]], sub)
			if err != nil {
				putStore(st)
				return nil, err
			}
			roots[i], built = rs[0], true
		case i == 0:
			b.Store.CloneInto(st)
			roots[i] = b.Root
		default:
			roots[i] = st.Graft(b.Store)(b.Root)
		}
	}
	if built {
		// One pass over the fresh slab makes every operator's value
		// windows kernel-eligible (the column index is a prefix property,
		// so nodes the operators append later simply fall back to scalar).
		st.BuildCols()
	}
	return p.finish(ctx, &fops.ARel{Tree: f, Store: st, Roots: roots}, true)
}

// ExecShared is Exec, kept for callers of the name.
func (p *Prepared) ExecShared(db DB) (*Result, error) { return p.Exec(db) }

// ExecSharedContext is ExecContext, kept for callers of the name.
func (p *Prepared) ExecSharedContext(ctx context.Context, db DB) (*Result, error) {
	return p.ExecContext(ctx, db)
}

// finish executes the prepared plan over the freshly built arena
// representation and wraps the result. pooled marks a store taken from
// the pool: it goes back on error, and on Result.Close.
func (p *Prepared) finish(ctx context.Context, ar *fops.ARel, pooled bool) (*Result, error) {
	if ar.IsEmpty() {
		ar.MakeEmpty()
	}
	if n, ok := fastCountValue(p.Query, ar); ok {
		return &Result{Query: p.Query, ARel: ar, Plan: p.Plan, eng: p.eng, pooled: pooled, orders: p.Orders, fastCount: &n}, nil
	}
	if err := p.Plan.ExecuteParallel(ctx, ar, p.eng.par()); err != nil {
		if pooled {
			putStore(ar.Store)
		}
		return nil, err
	}
	noteParallelExec(ar)
	return &Result{Query: p.Query, ARel: ar, Plan: p.Plan, eng: p.eng, pooled: pooled, orders: p.Orders}, nil
}
