package engine

// The plan-template law: a statement bound to a cached template of its
// shape plans, executes and answers exactly as the same statement
// planned by a fresh engine, and both answer as the flat baseline does.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/plan"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/workload"
)

const paperJoin = ` FROM Orders, Packages, Items WHERE package = package2 AND item = item2 AND `

// templateShapes are the paper's 13 query shapes over the base
// relations, as the plan_cold workload serves them: %s takes the
// constant filter, and each lists the attributes a filter may
// constrain.
var templateShapes = []struct {
	text  string
	attrs []string
}{
	{`SELECT package, date, customer, SUM(price) AS total` + paperJoin + `%s GROUP BY package, date, customer`, joinFilterAttrs},
	{`SELECT customer, SUM(price) AS revenue` + paperJoin + `%s GROUP BY customer`, joinFilterAttrs},
	{`SELECT date, package, SUM(price) AS total` + paperJoin + `%s GROUP BY date, package`, joinFilterAttrs},
	{`SELECT package, SUM(price) AS total` + paperJoin + `%s GROUP BY package`, joinFilterAttrs},
	{`SELECT SUM(price) AS total` + paperJoin + `%s`, joinFilterAttrs},
	{`SELECT customer, SUM(price) AS revenue` + paperJoin + `%s GROUP BY customer ORDER BY customer`, joinFilterAttrs},
	{`SELECT customer, SUM(price) AS revenue` + paperJoin + `%s GROUP BY customer ORDER BY revenue DESC, customer`, joinFilterAttrs},
	{`SELECT date, package, SUM(price) AS total` + paperJoin + `%s GROUP BY date, package ORDER BY date, package`, joinFilterAttrs},
	{`SELECT date, package, SUM(price) AS total` + paperJoin + `%s GROUP BY date, package ORDER BY package, date`, joinFilterAttrs},
	{`SELECT package, date, item, customer, price` + paperJoin + `%s ORDER BY package, date, item, customer`, joinFilterAttrs},
	{`SELECT package, item, date, customer, price` + paperJoin + `%s ORDER BY package, item, date, customer`, joinFilterAttrs},
	{`SELECT date, package, item, customer, price` + paperJoin + `%s ORDER BY date, package, item, customer`, joinFilterAttrs},
	{`SELECT customer, date, package FROM Orders WHERE %s ORDER BY customer, date, package`, []string{"date", "customer"}},
}

var joinFilterAttrs = []string{"price", "date", "customer"}

// aggOrderShapes order by aggregate outputs: the cluster golden
// Q3_mixed, whose sibling aggregates take the flat sort, and two
// aggregates ordered as one node, planned as γ and χ with no ρ. The agg
// workload's a7 (one aggregate: γ, ρ and χ) has no filter; it is
// aggOrderA7.
var aggOrderShapes = []struct {
	text  string
	attrs []string
}{
	{`SELECT date, package, SUM(price) AS total` + paperJoin + `%s GROUP BY date, package ORDER BY total DESC, date`, joinFilterAttrs},
	{`SELECT customer, SUM(price) AS revenue, COUNT(*) AS n` + paperJoin + `%s GROUP BY customer ORDER BY n DESC, revenue DESC, customer`, joinFilterAttrs},
}

const aggOrderA7 = `SELECT customer, SUM(price) AS revenue FROM Orders, Packages, Items WHERE package = package2 AND item = item2 GROUP BY customer ORDER BY revenue DESC, customer LIMIT 10`

// templateConsts are the filter constants per attribute at scale 1: two
// inside the generated domain, one past it, and a String against the
// Int attribute.
var templateConsts = map[string][]string{
	"price":    {"1", "10", "100", "'x'"},
	"date":     {"0", "400", "5000", "'x'"},
	"customer": {"3", "50", "1000", "'x'"},
}

var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

func mustParse(t testing.TB, text string) *query.Query {
	t.Helper()
	q, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return q
}

// checkBinding prepares text on the warm engine and on a fresh one and
// asserts equal path orders and plans, and identical rows from Exec of
// both over db, which must be the baseline's answer.
func checkBinding(t *testing.T, warm *Engine, text string, db DB) {
	t.Helper()
	q := mustParse(t, text)
	pw, err := warm.Prepare(q, db)
	if err != nil {
		t.Fatalf("%s: warm Prepare: %v", text, err)
	}
	pf, err := New().Prepare(q, db)
	if err != nil {
		t.Fatalf("%s: fresh Prepare: %v", text, err)
	}
	if fmt.Sprint(pw.Orders) != fmt.Sprint(pf.Orders) {
		t.Fatalf("%s: orders %v, fresh %v", text, pw.Orders, pf.Orders)
	}
	if pw.Plan.String() != pf.Plan.String() || pw.Plan.Cost != pf.Plan.Cost {
		t.Fatalf("%s: plan %s (cost %g), fresh %s (cost %g)", text, pw.Plan, pw.Plan.Cost, pf.Plan, pf.Plan.Cost)
	}
	want := collectRows(t, func() (*Result, error) { return pf.Exec(db) })
	checkOracle(t, q, want, rdb.DB(db))
	diffOrdered(t, text+": bound Exec", want, collectRows(t, func() (*Result, error) { return pw.Exec(db) }))
}

// TestTemplateMatchesFreshPlan walks every shape × filtered attribute ×
// operator × constant through one warm engine, rotating the page (no
// LIMIT, LIMIT 10, LIMIT 10 OFFSET 7), then a7 twice and a grouped shape
// whose HAVING constant changes between bindings.
func TestTemplateMatchesFreshPlan(t *testing.T) {
	db := DB(workload.Generate(workload.Config{Scale: 1}).DB())
	warm := New()
	pages := []string{"", " LIMIT 10", " LIMIT 10 OFFSET 7"}
	n, shapes := 2, 1
	checkBinding(t, warm, aggOrderA7, db)
	checkBinding(t, warm, aggOrderA7, db)
	for _, sh := range append(templateShapes, aggOrderShapes...) {
		for _, attr := range sh.attrs {
			shapes++
			for _, op := range cmpOps {
				for _, c := range templateConsts[attr] {
					text := fmt.Sprintf(sh.text, attr+" "+op+" "+c) + pages[n%len(pages)]
					n++
					checkBinding(t, warm, text, db)
				}
			}
		}
	}
	// HAVING is not part of the shape: these bind to the template of
	// shape 2 filtered on price.
	having := fmt.Sprintf(templateShapes[1].text, "price > 2") + " HAVING revenue > %d"
	for _, c := range []int{0, 40, 1 << 20} {
		n++
		checkBinding(t, warm, fmt.Sprintf(having, c), db)
	}
	st := warm.PlanTemplateStats()
	if st.Size != shapes || st.Misses != uint64(shapes) || st.Hits != uint64(n-shapes) {
		t.Fatalf("template stats %+v after %d statements of %d shapes", st, n, shapes)
	}
}

// TestTemplateServesEachDatabaseItsOwnData alternates one shape between
// two databases of one schema through one engine: each
// statement replaces the other database's template and answers from
// its own data, through bases of its own relations.
func TestTemplateServesEachDatabaseItsOwnData(t *testing.T) {
	dbs := []DB{
		DB(workload.Generate(workload.Config{Scale: 1, Seed: 1}).DB()),
		DB(workload.Generate(workload.Config{Scale: 1, Seed: 2}).DB()),
	}
	eng := New()
	for i := 0; i < 6; i++ {
		db := dbs[i%2]
		q := mustParse(t, fmt.Sprintf(templateShapes[1].text, fmt.Sprintf("price > %d", i)))
		p, err := eng.Prepare(q, db)
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, q, collectRows(t, func() (*Result, error) { return p.Exec(db) }), rdb.DB(db))
		for j, name := range q.Relations {
			if madeBase(db[name], p.Orders[j]) == nil {
				t.Fatalf("statement %d: no base of its own database's %s", i, name)
			}
		}
	}
	if st := eng.PlanTemplateStats(); st.Hits != 0 || st.Size != 1 {
		t.Fatalf("template stats %+v, want 0 hits and one entry", st)
	}
}

// TestTemplateKeyedByPlannerSettings flips PartialAgg and Exhaustive
// between statements of one shape: each is planned as an engine with
// those settings plans it, and only a repeated setting binds.
func TestTemplateKeyedByPlannerSettings(t *testing.T) {
	db := DB(workload.Generate(workload.Config{Scale: 1}).DB())
	settings := []struct{ partial, exhaustive bool }{
		{true, false}, {true, true}, {false, false}, {false, true}, {true, false},
	}
	eng := New()
	plans := map[string]bool{}
	for i, s := range settings {
		eng.PartialAgg, eng.Exhaustive = s.partial, s.exhaustive
		q := mustParse(t, fmt.Sprintf(templateShapes[8].text, fmt.Sprintf("date < %d", 100*(i+1))))
		got, err := eng.Prepare(q, db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := (&Engine{PartialAgg: s.partial, Exhaustive: s.exhaustive}).Prepare(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if got.Plan.String() != want.Plan.String() || fmt.Sprint(got.Orders) != fmt.Sprint(want.Orders) {
			t.Fatalf("setting %+v: plan %s over %v, want %s over %v", s, got.Plan, got.Orders, want.Plan, want.Orders)
		}
		plans[fmt.Sprint(len(want.Plan.Ops), want.Plan.Cost)] = true
	}
	if len(plans) < 2 {
		t.Fatal("every setting planned alike; the test cannot tell templates apart")
	}
	if st := eng.PlanTemplateStats(); st.Size != 4 || st.Hits != 1 {
		t.Fatalf("template stats %+v, want 4 entries and 1 hit", st)
	}
}

// TestTemplateMisalignedFallsBack corrupts a cached template so that its
// constant selections no longer line up with the filters of its shape:
// the next statement is planned afresh, and the entry stays as it was.
func TestTemplateMisalignedFallsBack(t *testing.T) {
	db := pizzeriaDB()
	shape := `SELECT customer, SUM(price) AS revenue FROM Orders, Pizzas, Items
		WHERE pizza = pizza2 AND item = item2 AND price %s GROUP BY customer ORDER BY customer`
	for name, corrupt := range map[string]func(op plan.SelectConstOp) []plan.Op{
		"dropped":  func(plan.SelectConstOp) []plan.Op { return nil },
		"renamed":  func(op plan.SelectConstOp) []plan.Op { op.Attr = "item2"; return []plan.Op{op} },
		"repeated": func(op plan.SelectConstOp) []plan.Op { return []plan.Op{op, op} },
	} {
		t.Run(name, func(t *testing.T) {
			eng := New()
			first := mustParse(t, fmt.Sprintf(shape, "> 1"))
			if _, err := eng.Prepare(first, db); err != nil {
				t.Fatal(err)
			}
			v, ok := eng.templates.lru().Get(eng.templateKey(first))
			if !ok {
				t.Fatal("no template cached")
			}
			tmpl := v.(*planTemplate)
			var ops []plan.Op
			for _, op := range tmpl.plan.Ops {
				if sel, ok := op.(plan.SelectConstOp); ok {
					ops = append(ops, corrupt(sel)...)
					continue
				}
				ops = append(ops, op)
			}
			tmpl.plan = &plan.Plan{Ops: ops, Cost: tmpl.plan.Cost}

			q := mustParse(t, fmt.Sprintf(shape, "<= 2"))
			got, err := eng.Prepare(q, db)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New().Prepare(q, db)
			if err != nil {
				t.Fatal(err)
			}
			if got.Plan.String() != want.Plan.String() {
				t.Fatalf("plan %s, want %s", got.Plan, want.Plan)
			}
			if &got.Orders[0] == &tmpl.orders[0] {
				t.Fatal("the fallback is a binding of the misaligned template")
			}
			if v, _ := eng.templates.lru().Get(eng.templateKey(q)); v != tmpl {
				t.Fatal("the fallback replaced the template entry")
			}
			if st := eng.PlanTemplateStats(); st.Hits != 0 || st.Misses != 2 || st.Size != 1 {
				t.Fatalf("template stats %+v, want 0 hits, 2 misses, 1 entry", st)
			}
			diffOrdered(t, "fallback",
				collectRows(t, func() (*Result, error) { return want.Exec(db) }),
				collectRows(t, func() (*Result, error) { return got.Exec(db) }))
		})
	}
}

// TestTemplateConcurrentBindings races eight goroutines, each preparing
// and executing statements of one shape with its own constants from a
// cold memo, against a writer streaming inserts into the catalogue: the
// first base builds, template replacement and the writer's publishes all
// race. Every result must equal a fresh engine's answer over a copy of
// the view it was executed on under fresh pointers, whose bases are
// built from the flat tuples.
func TestTemplateConcurrentBindings(t *testing.T) {
	m := newTestMutable(t)
	eng := New()
	ctx := context.Background()
	days := []string{"Monday", "Tuesday", "Friday", "Sunday"}
	rows := func(run func() (*Result, error)) (*relation.Relation, error) {
		res, err := run()
		if err != nil {
			return nil, err
		}
		defer res.Close()
		return res.Relation()
	}
	start := make(chan struct{})
	errs := make(chan error, 9)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 20; i++ {
			row := []values.Value{sv(fmt.Sprintf("w%02d", i)), sv(days[i%len(days)]), sv("Hawaii")}
			if _, err := m.Apply(ctx, ins("Orders", row)); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 10; i++ {
				view := m.View()
				q := pizzeriaRevenueQuery()
				q.Filters = []query.Filter{{Attr: "date", Op: fops.CmpOp(i % 6), Const: sv(days[(g+i)%len(days)])}}
				p, err := eng.PrepareContext(ctx, q, view)
				if err != nil {
					errs <- err
					return
				}
				got, err := rows(func() (*Result, error) { return p.ExecContext(ctx, view) })
				if err != nil {
					errs <- err
					return
				}
				want, err := rows(func() (*Result, error) { return New().RunContext(ctx, q, plainCopy(view)) })
				if err != nil {
					errs <- err
					return
				}
				if fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
					errs <- fmt.Errorf("goroutine %d statement %d (%s): %v, fresh %v", g, i, q, got.Tuples, want.Tuples)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTemplateHitAllocs pins what binding a statement to a cached
// template allocates: validation, the key, the Prepared and its copy of
// the plan. A hit that grows back into a search fails here.
func TestTemplateHitAllocs(t *testing.T) {
	db := DB(workload.Generate(workload.Config{Scale: 1}).DB())
	eng := New()
	q := mustParse(t, fmt.Sprintf(templateShapes[6].text, "price > 3")+" LIMIT 10")
	if _, err := eng.Prepare(q, db); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.Prepare(q, db); err != nil {
			t.Fatal(err)
		}
	})
	// 7 measured on go 1.24 (a cold Prepare of this shape is ~14k).
	const ceiling = 12
	t.Logf("template hit: %.0f allocs", allocs)
	if allocs > ceiling {
		t.Fatalf("template hit: %.0f allocs, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkPrepare prices Prepare of a paper shape planned from scratch
// (cold: a fresh Engine per op) against binding it to the engine's
// cached template (template: a new constant per op).
func BenchmarkPrepare(b *testing.B) {
	db := DB(workload.Generate(workload.Config{Scale: 1}).DB())
	qs := make([]*query.Query, 16)
	for i := range qs {
		qs[i] = mustParse(b, fmt.Sprintf(templateShapes[6].text, fmt.Sprintf("price > %d", i))+" LIMIT 10")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New().Prepare(qs[i%len(qs)], db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("template", func(b *testing.B) {
		eng := New()
		if _, err := eng.Prepare(qs[0], db); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Prepare(qs[i%len(qs)], db); err != nil {
				b.Fatal(err)
			}
		}
	})
}
