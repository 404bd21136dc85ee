package engine

// Golden DML suite: after an interleaving of INSERT/DELETE/UPSERT
// against the workload dataset, every query family — flat Q1–Q5 across
// Run/Exec, serial and parallel, and the view queries Q1–Q13 over
// factorisations built from the mutated relations — must produce results
// identical to a from-scratch rebuild of the same data.

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/workload"
)

// mirror is a plain tuple-set model of the mutation semantics, kept
// independent from the engine implementation under test.
type mirror map[string][]relation.Tuple

func (mi mirror) contains(rel string, tp relation.Tuple) bool {
	for _, ex := range mi[rel] {
		if relation.Compare(ex, tp) == 0 {
			return true
		}
	}
	return false
}

func (mi mirror) insert(rel string, rows ...[]values.Value) {
	for _, r := range rows {
		if !mi.contains(rel, relation.Tuple(r)) {
			mi[rel] = append(mi[rel], relation.Tuple(r))
		}
	}
}

func (mi mirror) delete(rel string, keep func(relation.Tuple) bool) {
	var kept []relation.Tuple
	for _, tp := range mi[rel] {
		if keep(tp) {
			kept = append(kept, tp)
		}
	}
	mi[rel] = kept
}

func (mi mirror) upsert(rel string, rows ...[]values.Value) {
	for _, r := range rows {
		key := r[0]
		mi.delete(rel, func(tp relation.Tuple) bool { return values.Compare(tp[0], key) != 0 })
		mi.insert(rel, r)
	}
}

func (mi mirror) db(attrs map[string][]string) DB {
	out := make(DB, len(mi))
	for name, tuples := range mi {
		out[name] = relation.MustNew(name, attrs[name], append([]relation.Tuple{}, tuples...))
	}
	return out
}

func TestGoldenDMLInterleaving(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 1})
	m, err := CreateMutable(filepath.Join(t.TempDir(), "cat"), "workload", DB(ds.DB()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	mi := mirror{}
	attrs := map[string][]string{}
	for name, rel := range ds.DB() {
		mi[name] = append([]relation.Tuple{}, rel.Tuples...)
		attrs[name] = rel.Attrs
	}

	// The interleaving: each step applies to the catalogue and the mirror.
	step := func(mut *query.Mutation, model func()) {
		t.Helper()
		apply(t, m, mut)
		model()
	}
	newOrders := [][]values.Value{
		{iv(1000), iv(1), iv(0)},
		{iv(1000), iv(2), iv(1)},
		{iv(1001), iv(1), iv(2)},
		{iv(1002), iv(3), iv(3)},
	}
	step(ins("Orders", newOrders...), func() { mi.insert("Orders", newOrders...) })

	step(&query.Mutation{Op: query.OpDelete, Relation: "Orders", Where: []query.Filter{
		{Attr: "package", Op: fops.EQ, Const: iv(0)},
	}}, func() {
		mi.delete("Orders", func(tp relation.Tuple) bool { return tp[2].Int() != 0 })
	})

	reprice := [][]values.Value{{iv(0), iv(50)}, {iv(1), iv(50)}, {iv(200), iv(7)}}
	step(&query.Mutation{Op: query.OpUpsert, Relation: "Items", Rows: reprice},
		func() { mi.upsert("Items", reprice...) })

	newPkg := [][]values.Value{{iv(1), iv(200)}, {iv(2), iv(200)}}
	step(ins("Packages", newPkg...), func() { mi.insert("Packages", newPkg...) })

	step(&query.Mutation{Op: query.OpDelete, Relation: "Items", Where: []query.Filter{
		{Attr: "price", Op: fops.GE, Const: iv(18)},
	}}, func() {
		mi.delete("Items", func(tp relation.Tuple) bool { return tp[1].Int() < 18 })
	})

	moreOrders := [][]values.Value{{iv(1003), iv(4), iv(1)}, {iv(1000), iv(1), iv(0)}}
	step(ins("Orders", moreOrders...), func() { mi.insert("Orders", moreOrders...) })

	// 1. The view must match the mirror, flat and factorised.
	want := mi.db(attrs)
	diffViews(t, m, want)
	view := m.View()

	// 2. Flat queries: every execution path over the mutated view must
	// equal a serial run over a from-scratch clone of the same data.
	ref := cloneDB(view)
	refEng := New()
	for i := 1; i <= 5; i++ {
		q, err := workload.FlatAggQuery(i)
		if err != nil {
			t.Fatal(err)
		}
		base := collectRows(t, func() (*Result, error) { return refEng.Run(q, ref) })

		runs := map[string]func() (*Result, error){
			"arena": func() (*Result, error) { q, _ := workload.FlatAggQuery(i); return New().Run(q, view) },
			"par2": func() (*Result, error) {
				q, _ := workload.FlatAggQuery(i)
				e := New()
				e.Parallelism = 2
				return e.Run(q, view)
			},
			"par8": func() (*Result, error) {
				q, _ := workload.FlatAggQuery(i)
				e := New()
				e.Parallelism = 8
				return e.Run(q, view)
			},
			"execshared": func() (*Result, error) {
				q, _ := workload.FlatAggQuery(i)
				prep, err := New().Prepare(q, view)
				if err != nil {
					return nil, err
				}
				return prep.Exec(view)
			},
		}
		for name, run := range runs {
			got := collectRows(t, run)
			diffOrdered(t, fmt.Sprintf("flat-Q%d/%s", i, name), base, got)
		}
	}

	// 3. View queries Q1–Q13: factorise R1/R3 from the mutated relations
	// and from the clone; all results must agree.
	mds := &workload.Dataset{Scale: 1, Orders: view["Orders"], Packages: view["Packages"], Items: view["Items"]}
	rds := &workload.Dataset{Scale: 1, Orders: ref["Orders"], Packages: ref["Packages"], Items: ref["Items"]}
	cat := mds.Catalog()
	mr1, err := mds.FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	rr1, err := rds.FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	mr3, err := mds.FactorisedR3()
	if err != nil {
		t.Fatal(err)
	}
	rr3, err := rds.FactorisedR3()
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		name        string
		mk          func() *query.Query
		view, rview *fops.ARel
	}
	var cases []tc
	for i := 1; i <= 5; i++ {
		i := i
		cases = append(cases, tc{
			name: fmt.Sprintf("Q%d", i),
			mk: func() *query.Query {
				q, err := workload.AggQuery(i)
				if err != nil {
					t.Fatal(err)
				}
				return q
			},
			view: mr1, rview: rr1,
		})
	}
	cases = append(cases,
		tc{name: "Q6", mk: workload.Q6, view: mr1, rview: rr1},
		tc{name: "Q7", mk: workload.Q7, view: mr1, rview: rr1},
		tc{name: "Q8", mk: workload.Q8, view: mr1, rview: rr1},
		tc{name: "Q9", mk: workload.Q9, view: mr1, rview: rr1},
		tc{name: "Q10", mk: func() *query.Query { return workload.Q10(10) }, view: mr1, rview: rr1},
		tc{name: "Q11", mk: func() *query.Query { return workload.Q11(10) }, view: mr1, rview: rr1},
		tc{name: "Q12", mk: func() *query.Query { return workload.Q12(10) }, view: mr1, rview: rr1},
		tc{name: "Q13", mk: func() *query.Query { return workload.Q13(10) }, view: mr3, rview: rr3},
	)
	eng := New()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := collectRows(t, func() (*Result, error) { return eng.RunOnView(c.mk(), c.view, cat) })
			wantR := collectRows(t, func() (*Result, error) { return eng.RunOnView(c.mk(), c.rview, cat) })
			diffOrdered(t, c.name, wantR, got)
		})
	}
}
