package engine

// Cancellation suite (run under -race in CI): contexts cancelled before
// planning, during execution and mid-enumeration must surface
// context.Canceled promptly and hand every pooled store back exactly
// once.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// bigDB builds a single-relation database large enough that
// enumeration spans many context-check windows.
func bigDB(t *testing.T, rows int) DB {
	t.Helper()
	ts := make([]relation.Tuple, rows)
	for i := range ts {
		ts[i] = relation.Tuple{
			values.NewInt(int64(i)),
			values.NewInt(int64(i % 97)),
		}
	}
	rel, err := relation.New("Big", []string{"k", "v"}, ts)
	if err != nil {
		t.Fatal(err)
	}
	return DB{"Big": rel}
}

func spjQuery() *query.Query {
	return &query.Query{
		Relations: []string{"Big"},
		OrderBy:   []query.OrderItem{{Attr: "k"}},
	}
}

// filteredQuery is spjQuery with a selection every row passes: the
// same stream, but the σ is an operator, so the execution copies the
// base into a pooled store.
func filteredQuery() *query.Query {
	q := spjQuery()
	q.Filters = []query.Filter{{Attr: "v", Op: fops.GE, Const: values.NewInt(0)}}
	return q
}

func groupedQuery() *query.Query {
	return &query.Query{
		Relations:  []string{"Big"},
		GroupBy:    []string{"k"},
		Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}},
		OrderBy:    []query.OrderItem{{Attr: "k"}},
	}
}

func aggOrderedQuery() *query.Query {
	return &query.Query{
		Relations:  []string{"Big"},
		GroupBy:    []string{"k"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "v", As: "s"}},
		OrderBy:    []query.OrderItem{{Attr: "s", Desc: true}},
	}
}

// TestCancelBeforePlan asserts an already-cancelled context stops
// PrepareContext (greedy and exhaustive) without leaking a store.
func TestCancelBeforePlan(t *testing.T) {
	db := bigDB(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []*Engine{
		{PartialAgg: true},
		{PartialAgg: true, Exhaustive: true},
	} {
		before := storeReturns.Load()
		_, err := eng.PrepareContext(ctx, groupedQuery(), db)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("PrepareContext = %v, want context.Canceled", err)
		}
		if d := storeReturns.Load() - before; d != 0 {
			t.Fatalf("%d store returns during failed prepare, want 0 (none taken)", d)
		}
	}
}

// TestCancelDuringExec asserts that a cancelled on-demand base build is
// not kept — no store is taken and the next execution builds it — and
// that a context cancelled before the operators of an execution over
// built bases returns the pooled store exactly once.
func TestCancelDuringExec(t *testing.T) {
	db := bigDB(t, 100)
	eng := New()
	prep, err := eng.Prepare(filteredQuery(), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Plan.Ops) == 0 {
		t.Fatal("the query runs no operator; the pooled path is not exercised")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// The cancellation stops the first base build before any store is
	// taken, and caches nothing.
	before := storeReturns.Load()
	if _, err := prep.ExecContext(ctx, db); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecContext(cancelled) before any base = %v, want context.Canceled", err)
	}
	if d := storeReturns.Load() - before; d != 0 {
		t.Fatalf("store returned %d times on a cancelled base build, want 0", d)
	}
	for i, name := range prep.Query.Relations {
		if madeBase(db[name], prep.Orders[i]) != nil {
			t.Fatalf("cancelled build of %s was cached", name)
		}
	}
	res, err := prep.ExecContext(context.Background(), db)
	if err != nil {
		t.Fatalf("ExecContext after cancelled build = %v", err)
	}
	res.Close()
	for i, name := range prep.Query.Relations {
		if madeBase(db[name], prep.Orders[i]) == nil {
			t.Fatalf("no base of %s after a completed execution", name)
		}
	}

	// Over built bases the store is taken, and the cancellation before
	// the first operator hands it back exactly once.
	before = storeReturns.Load()
	if _, err := prep.ExecContext(ctx, db); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecContext(cancelled) over built bases = %v, want context.Canceled", err)
	}
	if d := storeReturns.Load() - before; d != 1 {
		t.Fatalf("store returned %d times on cancelled Exec, want exactly 1", d)
	}
}

// cancelMidStream runs the query, reads a few rows, cancels, drains,
// and asserts prompt termination with context.Canceled plus exactly one
// store return across Close (called twice).
func cancelMidStream(t *testing.T, name string, run func(ctx context.Context) (*Result, error)) {
	t.Helper()
	before := storeReturns.Load()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := run(ctx)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rows, err := res.Rows(ctx)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := 0; i < 5; i++ {
		if !rows.Next() {
			t.Fatalf("%s: stream ended after %d rows", name, i)
		}
	}
	cancel()
	n := 0
	for rows.Next() {
		n++
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("%s: rows.Err() = %v, want context.Canceled", name, rows.Err())
	}
	// Promptness: at most one context-check window of rows after cancel.
	if n > ctxCheckEvery {
		t.Fatalf("%s: %d rows emitted after cancel, want <= %d", name, n, ctxCheckEvery)
	}
	rows.Close()
	res.Close()
	res.Close()
	if d := storeReturns.Load() - before; d != 1 {
		t.Fatalf("%s: store returned %d times, want exactly 1", name, d)
	}
}

// TestCancelMidEnumeration covers the flat, grouped and
// aggregate-ordered cursor paths.
func TestCancelMidEnumeration(t *testing.T) {
	db := bigDB(t, 20000)
	eng := New()
	cases := []struct {
		name string
		mk   func() *query.Query
	}{
		{"flat-ordered", filteredQuery},
		{"grouped", groupedQuery},
		{"agg-ordered", aggOrderedQuery},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cancelMidStream(t, c.name, func(ctx context.Context) (*Result, error) {
				return eng.RunContext(ctx, c.mk(), db)
			})
		})
	}
}

// TestCancelMidEnumerationView covers a view-backed (RunOnView) result:
// not pooled, but the stream must still stop on cancellation.
func TestCancelMidEnumerationView(t *testing.T) {
	db := bigDB(t, 20000)
	f := ftree.New()
	f.NewRelationPath("k", "v")
	view, err := fops.FromRelationStore(frep.NewStore(), db["Big"], f)
	if err != nil {
		t.Fatal(err)
	}
	cat := []ftree.CatalogRelation{{Name: "Big", Attrs: []string{"k", "v"}, Size: 20000}}
	eng := New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q := &query.Query{Relations: []string{"Big"}, OrderBy: []query.OrderItem{{Attr: "k"}}}
	res, err := eng.RunOnView(q, view, cat)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	rows, err := res.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended after %d rows", i)
		}
	}
	cancel()
	n := 0
	for rows.Next() {
		n++
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("rows.Err() = %v, want context.Canceled", rows.Err())
	}
	if n > ctxCheckEvery {
		t.Fatalf("%d rows emitted after cancel, want <= %d", n, ctxCheckEvery)
	}
}

// TestCancelConcurrent exercises cancellation racing a running
// enumeration and the first build of a relation's base
// (meaningful under -race): one goroutine streams, another cancels
// shortly after, repeated across several queries concurrently.
func TestCancelConcurrent(t *testing.T) {
	db := bigDB(t, 20000)
	eng := New()
	prep, err := eng.Prepare(spjQuery(), db)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 5; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				res, err := prep.ExecContext(ctx, db)
				if err != nil {
					cancel()
					errc <- err
					return
				}
				rows, err := res.Rows(ctx)
				if err != nil {
					cancel()
					res.Close()
					errc <- err
					return
				}
				go func() {
					time.Sleep(time.Duration(w+1) * 100 * time.Microsecond)
					cancel()
				}()
				for rows.Next() {
				}
				if err := rows.Err(); err != nil && !errors.Is(err, context.Canceled) {
					cancel()
					res.Close()
					errc <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				rows.Close()
				res.Close()
				cancel()
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunOnViewContextCancelled pins the ctxflow fix from the fdbvet
// PR: view execution (RunOnViewContext) must honour the caller's
// context instead of minting a fresh root internally — in the plan
// search as well as between operators. A pre-cancelled context has to
// stop the query before the first operator runs, on the greedy and the
// exhaustive planner alike.
func TestRunOnViewContextCancelled(t *testing.T) {
	db := bigDB(t, 20000)
	f := ftree.New()
	f.NewRelationPath("k", "v")
	view, err := fops.FromRelationStore(frep.NewStore(), db["Big"], f)
	if err != nil {
		t.Fatal(err)
	}
	cat := []ftree.CatalogRelation{{Name: "Big", Attrs: []string{"k", "v"}, Size: 20000}}
	// A view the second query needs no operator on: grouping by its only
	// attribute is already supported, so nothing but the planner can
	// notice the cancellation.
	keys, err := db["Big"].Project("k")
	if err != nil {
		t.Fatal(err)
	}
	kf := ftree.New()
	kf.NewRelationPath("k")
	keyView, err := fops.FromRelationStore(frep.NewStore(), keys, kf)
	if err != nil {
		t.Fatal(err)
	}
	countPerKey := &query.Query{
		Relations:  []string{"Big"},
		GroupBy:    []string{"k"},
		Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []*Engine{{PartialAgg: true}, {PartialAgg: true, Exhaustive: true}} {
		// groupedQuery carries a γ aggregation, so the plan has at least
		// one operator and the pre-operator context check backs the
		// planner's up.
		if _, err := eng.RunOnViewContext(ctx, groupedQuery(), view, cat); !errors.Is(err, context.Canceled) {
			t.Fatalf("exhaustive=%v: RunOnViewContext(cancelled) = %v, want context.Canceled", eng.Exhaustive, err)
		}
		if _, err := eng.RunOnViewContext(ctx, countPerKey, keyView, cat); !errors.Is(err, context.Canceled) {
			t.Fatalf("exhaustive=%v: operator-free RunOnViewContext(cancelled) = %v, want context.Canceled", eng.Exhaustive, err)
		}
		// The uncancelled path through the same API still works.
		res, err := eng.RunOnViewContext(context.Background(), groupedQuery(), view, cat)
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
}
