package engine

// Tests of the one execution body (Engine.run): how a relation's bases
// and a view reach the operators, and what a bare COUNT(*) copies.

import (
	"bytes"
	"strings"
	"testing"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/workload"
)

func countStarOf(rel string) *query.Query {
	return &query.Query{Relations: []string{rel}, Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}}}
}

// TestCountStarCopiesNothing: a bare COUNT(*) over one catalogue
// relation, one plain relation and one ranked view is answered from the
// input's ranks before any store is taken: the count is the flat
// baseline's, no pooled store comes back across Exec and Close, and
// Explain still renders.
func TestCountStarCopiesNothing(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 1})
	db := DB(ds.DB())
	var snap bytes.Buffer
	if _, err := SaveCatalog(&snap, "workload", db); err != nil {
		t.Fatal(err)
	}
	cat, err := LoadCatalog(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	view, err := ds.FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Store.BuildRanks(); err != nil {
		t.Fatal(err)
	}
	r1, err := ds.FlatR1()
	if err != nil {
		t.Fatal(err)
	}
	eng := New()
	for _, c := range []struct {
		name string
		q    *query.Query
		run  func(q *query.Query) (*Result, error)
		flat rdb.DB
	}{
		{"catalogue relation", countStarOf("Orders"), func(q *query.Query) (*Result, error) { return eng.Run(q, cat.DB) }, rdb.DB(db)},
		{"plain relation", countStarOf("Orders"), func(q *query.Query) (*Result, error) { return eng.Run(q, db) }, rdb.DB(db)},
		{"ranked view", countStarOf("R1"), func(q *query.Query) (*Result, error) { return eng.RunOnView(q, view, ds.Catalog()) }, rdb.DB{"R1": r1}},
	} {
		want, err := rdb.New().Run(c.q, c.flat)
		if err != nil {
			t.Fatal(err)
		}
		before := StorePoolReturns()
		res, err := c.run(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.fastCount == nil {
			t.Fatalf("%s: COUNT(*) was not answered from the ranks", c.name)
		}
		got, err := res.Relation()
		if err != nil {
			t.Fatal(err)
		}
		explain := res.Explain()
		res.Close()
		if d := StorePoolReturns() - before; d != 0 {
			t.Fatalf("%s: %d pooled stores returned across Exec and Close, want 0", c.name, d)
		}
		diffOrdered(t, c.name, want, got)
		if !strings.Contains(explain, "result size:") {
			t.Fatalf("%s: Explain did not render:\n%s", c.name, explain)
		}
	}
}

// TestBasesAttachOnFirstUse: Prepare reads no data; the first Exec over
// a database no query has read attaches a base set to each relation and
// builds its bases, and a second Exec builds nothing and answers the
// same.
func TestBasesAttachOnFirstUse(t *testing.T) {
	db := DB(workload.Generate(workload.Config{Scale: 1}).DB())
	q, err := workload.FlatAggQuery(2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New().Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range q.Relations {
		if baseSetOf(db[name]) != nil {
			t.Fatalf("%s carries bases before any execution", name)
		}
	}
	builds := baseBuilds.Load()
	first := collectRows(t, func() (*Result, error) { return p.Exec(db) })
	if d := baseBuilds.Load() - builds; d != int64(len(q.Relations)) {
		t.Fatalf("the first Exec built %d bases, want %d", d, len(q.Relations))
	}
	for i, name := range q.Relations {
		if madeBase(db[name], p.Orders[i]) == nil {
			t.Fatalf("%s carries no base in %v after the first Exec", name, p.Orders[i])
		}
	}
	builds = baseBuilds.Load()
	second := collectRows(t, func() (*Result, error) { return p.Exec(db) })
	if d := baseBuilds.Load() - builds; d != 0 {
		t.Fatalf("the second Exec built %d bases, want 0", d)
	}
	diffOrdered(t, "second Exec", first, second)
	checkOracle(t, q, first, rdb.DB(db))
}

// TestRunOnViewPooled: a view query with operators copies the view into
// a pooled store, runs them there and returns the store on Close,
// leaving the view's own store unchanged; an operator-free view query
// reads the view in place and takes no store.
func TestRunOnViewPooled(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 1})
	view, err := ds.FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ds.FlatR1()
	if err != nil {
		t.Fatal(err)
	}
	orig := view.Store.Clone()
	unchanged := func() bool {
		for _, r := range view.Roots {
			if !frep.EqualStore(orig, r, view.Store, r) {
				return false
			}
		}
		return true
	}
	eng := New()
	for _, c := range []struct {
		name   string
		q      *query.Query
		pooled bool
	}{
		{"Q6", workload.Q6(), true},
		{"operator-free", &query.Query{Relations: []string{"R1"}}, false},
	} {
		before := StorePoolReturns()
		res, err := eng.RunOnView(c.q, view, ds.Catalog())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ops := len(res.Plan.Ops) > 0; ops != c.pooled {
			t.Fatalf("%s: plan %s, want operators = %v", c.name, res.Plan, c.pooled)
		}
		if res.pooled != c.pooled {
			t.Fatalf("%s: pooled = %v, want %v", c.name, res.pooled, c.pooled)
		}
		got, err := res.Relation()
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
		want := int64(0)
		if c.pooled {
			want = 1
		}
		if d := StorePoolReturns() - before; d != want {
			t.Fatalf("%s: %d pooled stores returned, want %d", c.name, d, want)
		}
		if !unchanged() {
			t.Fatalf("%s: the view's store changed", c.name)
		}
		checkOracle(t, c.q, got, rdb.DB{"R1": r1})
	}
}
