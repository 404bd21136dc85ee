package engine

import (
	"context"
	"fmt"
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
// it then shares Orders, Plan.Cost and the ExecShared base snapshot with
// every other statement of its query shape, and owns only Query and a
// copy of Plan.Ops carrying its own filter constants.
//
// A Prepared is immutable after Prepare (apart from the internal shared
// base snapshot, which is built lazily under a mutex) and safe for
// concurrent Exec/ExecShared calls: f-plan operators address f-tree
// nodes by attribute name and every execution builds its own factorised
// representation, so no state is shared between concurrent executions.
type Prepared struct {
	// Query is the validated logical query.
	Query *query.Query
	// Orders holds the chosen linear-path attribute order per relation,
	// aligned with Query.Relations. Bindings of one template share it.
	Orders [][]string
	// Plan is the optimised f-plan, reusable across executions.
	Plan *plan.Plan

	eng *Engine

	// shared caches the factorised base relations for ExecShared, one
	// per plan template, so every binding of a shape reads the same one.
	shared *baseSnapshot
}

// baseSnapshot is the factorised base relations of one plan template
// (one frozen arena store) for ExecShared. A failed build (including one
// cancelled by its caller's context) is not cached; the next call
// retries. rels records the exact relation pointers the snapshot was
// built from: mutable catalogues publish a fresh relation pointer per
// write, so a pointer mismatch on a later call detects a stale snapshot
// and forces a rebuild (the stale-plan guard) for every binding at once.
type baseSnapshot struct {
	mu    sync.Mutex
	built bool
	store *frep.Store
	roots []frep.NodeID
	rels  []*relation.Relation
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
		e.templates.lru().Put(key, &planTemplate{rels: rels, orders: p.Orders, plan: p.Plan, base: p.shared})
	}
	return p, nil
}

// search runs the path-order search and the f-plan optimiser for q, and
// returns a Prepared with a base snapshot of its own together with the
// relations it was planned against.
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
	return &Prepared{Query: q, Orders: orders, Plan: fplan, eng: e, shared: &baseSnapshot{}}, rels, nil
}

// buildForest factorises the query's relations in the prepared path
// orders into the store, returning the fresh forest and one root per
// relation. A relation whose catalogue snapshot carries a prebuilt
// factorisation in the required order is grafted (three slab copies)
// instead of re-sorted from flat tuples — the cold-start fast path for
// databases loaded with LoadCatalog. The context is checked between
// relations so huge base-data builds honour cancellation.
func (p *Prepared) buildForest(ctx context.Context, db DB, st *frep.Store) (*ftree.Forest, []frep.NodeID, error) {
	f := ftree.New()
	var roots []frep.NodeID
	for i, name := range p.Query.Relations {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		rel, ok := db[name]
		if !ok {
			return nil, nil, fmt.Errorf("engine: unknown relation %q", name)
		}
		f.NewRelationPath(p.Orders[i]...)
		if fact := factFor(rel, p.Orders[i]); fact != nil {
			roots = append(roots, graftFact(st, fact))
			continue
		}
		sub := ftree.New()
		sub.NewRelationPath(p.Orders[i]...)
		rs, err := frep.BuildStoreUnchecked(st, rel, sub)
		if err != nil {
			return nil, nil, err
		}
		roots = append(roots, rs[0])
	}
	return f, roots, nil
}

// Exec runs the prepared plan against the database: each relation is
// factorised as a linear path in the prepared order into a pooled arena
// store and the cached f-plan is executed, skipping validation and
// optimisation. Exec may be called concurrently from multiple
// goroutines. Call Result.Close when done with the result to recycle
// its store.
func (p *Prepared) Exec(db DB) (*Result, error) {
	return p.ExecContext(context.Background(), db)
}

// ExecContext is Exec with cancellation: the context is checked while
// the base relations are factorised and between f-plan operators, and
// the pooled store is returned before the error surfaces, so a
// cancelled execution leaks nothing.
func (p *Prepared) ExecContext(ctx context.Context, db DB) (*Result, error) {
	st := getStore()
	f, roots, err := p.buildForest(ctx, db, st)
	if err != nil {
		putStore(st)
		return nil, err
	}
	// One pass over the fresh base slab makes every operator's value
	// windows kernel-eligible (the column index is a prefix property, so
	// nodes the operators append later simply fall back to scalar).
	st.BuildCols()
	ar := &fops.ARel{Tree: f, Store: st, Roots: roots}
	return p.finish(ctx, ar, true)
}

// ExecShared is Exec for databases whose relations do not change between
// calls (the server's contract): the factorised base relations are built
// once, kept as an immutable store snapshot shared by every binding of
// the Prepared's plan template, and each execution starts from a slab
// copy of that snapshot instead of re-sorting the base relations. A plan
// with no operators copies nothing: it enumerates (and seeks) on the
// snapshot itself, and its Result holds no pooled store. Replacing a
// relation by a new pointer (what a mutable catalogue does on a write)
// rebuilds the snapshot on the next call; mutating a relation in place
// is not supported — use Exec for that.
func (p *Prepared) ExecShared(db DB) (*Result, error) {
	return p.ExecSharedContext(context.Background(), db)
}

// ExecSharedContext is ExecShared with cancellation; see ExecContext.
// The shared base snapshot is built with the first caller's context: a
// cancellation during that build is not cached, so the next call
// rebuilds it.
func (p *Prepared) ExecSharedContext(ctx context.Context, db DB) (*Result, error) {
	b := p.shared
	b.mu.Lock()
	if b.built {
		// Stale-plan guard: if any relation in db is a different pointer
		// from the one the snapshot captured (a mutable catalogue
		// published a new generation), drop the snapshot and rebuild.
		// The match path costs len(Relations) map lookups and pointer
		// compares — no allocations.
		for i, name := range p.Query.Relations {
			if db[name] != b.rels[i] {
				b.built = false
				b.store = nil
				b.roots = nil
				b.rels = nil
				break
			}
		}
	}
	if !b.built {
		bst := frep.NewStore()
		_, roots, err := p.buildForest(ctx, db, bst)
		if err != nil {
			// Not cached: a cancelled (or otherwise failed) snapshot build
			// must not poison the Prepared for later callers.
			b.mu.Unlock()
			return nil, err
		}
		// Rank the shared base once: every execution clones the snapshot,
		// so ranked OFFSET seeks, COUNT(*) fast paths and weighted
		// parallel splits come for free on all of them.
		if err := bst.BuildRanks(); err != nil {
			b.mu.Unlock()
			return nil, err
		}
		// Likewise the column index: built once here, shared by pointer
		// into every per-execution clone.
		bst.BuildCols()
		b.store = bst.Snapshot()
		b.roots = roots
		rels := make([]*relation.Relation, len(p.Query.Relations))
		for i, name := range p.Query.Relations {
			rels[i] = db[name]
		}
		b.rels = rels
		b.built = true
	}
	sharedStore, sharedRoots := b.store, b.roots
	b.mu.Unlock()
	f := ftree.New()
	for i := range p.Query.Relations {
		f.NewRelationPath(p.Orders[i]...)
	}
	roots := append([]frep.NodeID{}, sharedRoots...)
	if len(p.Plan.Ops) == 0 {
		// No operator writes into the store, so the execution reads the
		// shared snapshot itself: an O(1) view whose capacity-clamped
		// slabs copy out on any stray append. It is not pooled.
		return p.finish(ctx, &fops.ARel{Tree: f, Store: sharedStore.Snapshot(), Roots: roots}, false)
	}
	st := getStore()
	sharedStore.CloneInto(st)
	return p.finish(ctx, &fops.ARel{Tree: f, Store: st, Roots: roots}, true)
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
