package engine

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/workload"
)

func prepareQueries() []*query.Query {
	return []*query.Query{
		{ // aggregation over the three-way join
			Relations:  []string{"Orders", "Pizzas", "Items"},
			Equalities: pizzeriaEqualities(),
			GroupBy:    []string{"customer"},
			Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "revenue"}},
			OrderBy:    []query.OrderItem{{Attr: "revenue", Desc: true}, {Attr: "customer"}},
		},
		{ // SPJ with projection and order
			Relations:  []string{"Orders"},
			Projection: []string{"customer", "pizza"},
			OrderBy:    []query.OrderItem{{Attr: "customer"}, {Attr: "pizza"}},
		},
		{ // global aggregate
			Relations:  []string{"Orders", "Pizzas"},
			Equalities: []query.Equality{{A: "pizza", B: "pizza2"}},
			Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}},
		},
	}
}

// TestPreparedMatchesRun checks that Prepare+Exec gives exactly the
// rows of Run, on first and repeated executions.
func TestPreparedMatchesRun(t *testing.T) {
	db := pizzeriaDB()
	e := New()
	for qi, q := range prepareQueries() {
		want, err := e.Run(q, db)
		if err != nil {
			t.Fatalf("query %d: Run: %v", qi, err)
		}
		wantRel, err := want.Relation()
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.Prepare(q, db)
		if err != nil {
			t.Fatalf("query %d: Prepare: %v", qi, err)
		}
		for rep := 0; rep < 3; rep++ {
			res, err := p.Exec(db)
			if err != nil {
				t.Fatalf("query %d rep %d: Exec: %v", qi, rep, err)
			}
			rel, err := res.Relation()
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(rel.Tuples) != fmt.Sprint(wantRel.Tuples) {
				t.Fatalf("query %d rep %d:\nprepared: %v\nrun:      %v", qi, rep, rel.Tuples, wantRel.Tuples)
			}
		}
	}
}

// TestPreparedConcurrentExec executes one shared Prepared from many
// goroutines; run with -race this is the engine's concurrency test for
// the plan-cache execution path.
func TestPreparedConcurrentExec(t *testing.T) {
	db := pizzeriaDB()
	e := New()
	q := prepareQueries()[0]
	p, err := e.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Exec(db)
	if err != nil {
		t.Fatal(err)
	}
	refRel, err := ref.Relation()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := p.Exec(db)
				if err != nil {
					errs <- err
					return
				}
				rel, err := res.Relation()
				if err != nil {
					errs <- err
					return
				}
				if fmt.Sprint(rel.Tuples) != fmt.Sprint(refRel.Tuples) {
					errs <- fmt.Errorf("concurrent Exec diverged: %v vs %v", rel.Tuples, refRel.Tuples)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPreparedStaleRelation checks that Exec fails cleanly when the
// database no longer matches the prepared plan.
func TestPreparedStaleRelation(t *testing.T) {
	db := pizzeriaDB()
	e := New()
	p, err := e.Prepare(prepareQueries()[0], db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(DB{}); err == nil {
		t.Fatal("Exec against an empty database should fail")
	}
	// A relation with a different schema must be rejected by the build.
	bad := pizzeriaDB()
	bad["Items"] = relation.MustNew("Items", []string{"other"}, nil)
	if _, err := p.Exec(bad); err == nil {
		t.Fatal("Exec against a reshaped relation should fail")
	}
}

// operatorFreeQueries order R3 (declared customer-first) by date, so
// their path leads with date and their plans have no operator: a scan,
// a ranked page and a descending page.
func operatorFreeQueries() []string {
	const byDate = `SELECT date, customer, package FROM R3 ORDER BY date, customer, package`
	return []string{
		byDate,
		byDate + ` LIMIT 10 OFFSET 300`,
		`SELECT date, customer, package FROM R3 ORDER BY date DESC, customer DESC, package DESC LIMIT 7 OFFSET 40`,
	}
}

// TestPreparedSharedOperatorFree: an operator-free execution reads the
// relation's base in place, so N executions return no store to the
// pool; its rows answer the query as the flat baseline does and are
// byte-identical across executions.
func TestPreparedSharedOperatorFree(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 2})
	r3, err := ds.R3()
	if err != nil {
		t.Fatal(err)
	}
	db := DB{"R3": r3}
	eng := New()
	for _, text := range operatorFreeQueries() {
		q, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		p, err := eng.Prepare(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Plan.Ops) != 0 {
			t.Fatalf("%s: plan %s, want no operators", text, p.Plan)
		}
		checkOracle(t, q, collectRows(t, func() (*Result, error) { return p.Exec(db) }), rdb.DB(db))
		want := renderRows(t, func() (*Result, error) { return p.Exec(db) })
		const n = 5
		before := StorePoolReturns()
		for i := 0; i < n; i++ {
			if got := renderRows(t, func() (*Result, error) { return p.Exec(db) }); !bytes.Equal(got, want) {
				t.Fatalf("%s: execution %d differs from the first\nwant:\n%s\ngot:\n%s", text, i, want, got)
			}
		}
		if d := StorePoolReturns() - before; d != 0 {
			t.Fatalf("%s: %d operator-free executions returned %d pooled stores, want 0", text, n, d)
		}
	}
}

// TestPreparedSharedOperatorFreeConcurrent races operator-free readers
// at P=2, fanned out over segment workers, against a mutable-catalogue
// writer whose every insert publishes a new Orders, with bases of its
// own. Each reader's rows must equal those over a copy of the same view
// under fresh pointers, whose bases are built from the flat tuples
// rather than read from the catalogue, and no execution returns a
// pooled store.
func TestPreparedSharedOperatorFreeConcurrent(t *testing.T) {
	forceParallelThresholds(t)
	m := newTestMutable(t)
	eng := &Engine{PartialAgg: true, Parallelism: 2}
	q, err := sql.Parse(`SELECT customer, date, pizza FROM Orders ORDER BY date, customer, pizza`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.Prepare(q, m.View())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Plan.Ops) != 0 {
		t.Fatalf("plan %s, want no operators", p.Plan)
	}
	rows := func(run func() (*Result, error)) (string, error) {
		res, err := run()
		if err != nil {
			return "", err
		}
		defer res.Close()
		rel, err := res.Relation()
		if err != nil {
			return "", err
		}
		return fmt.Sprint(rel.Tuples), nil
	}
	workersBefore := ParallelStats().EnumWorkers
	returnsBefore := StorePoolReturns()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			row := []values.Value{sv(fmt.Sprintf("c%02d", i)), sv("Sunday"), sv("Hawaii")}
			if _, err := m.Apply(context.Background(), ins("Orders", row)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	const readers, reps = 4, 15
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				db := m.View()
				got, err := rows(func() (*Result, error) { return p.Exec(db) })
				if err != nil {
					errs <- err
					return
				}
				want, err := rows(func() (*Result, error) { return p.Exec(plainCopy(db)) })
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("catalogue base diverged from the flat tuples' base:\n%s\n%s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if d := StorePoolReturns() - returnsBefore; d != 0 {
		t.Fatalf("%d pooled stores returned by operator-free executions, want 0", d)
	}
	if ParallelStats().EnumWorkers == workersBefore {
		t.Fatal("no enumeration worker fanned out over the shared snapshot")
	}
}
