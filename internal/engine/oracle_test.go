package engine

// Oracle suite: every query of the paper's experimental set is executed
// on every execution surface of the engine — Run and Prepared.Exec over
// base relations, building and reusing their bases, RunOnView over the
// materialised views R1/R3 — and its answer is checked against the flat
// relational baseline (internal/rdb) evaluating the same query on the
// flat join. The baseline shares no code with the factorised path, so
// agreement pins the semantics the paper defines, not one
// implementation against another.

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/workload"
)

// collectRows runs a query and materialises its result, closing it.
func collectRows(t *testing.T, run func() (*Result, error)) *relation.Relation {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	rel, err := res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// diffOrdered asserts two results are identical, including row order.
func diffOrdered(t *testing.T, name string, want, got *relation.Relation) {
	t.Helper()
	if len(want.Tuples) != len(got.Tuples) {
		t.Fatalf("%s: %d rows, want %d", name, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		if relation.Compare(want.Tuples[i], got.Tuples[i]) != 0 {
			t.Fatalf("%s: row %d = %v, want %v", name, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// checkOracle asserts that got answers q as the flat baseline does over
// flat; see oracleErr.
func checkOracle(t *testing.T, q *query.Query, got *relation.Relation, flat rdb.DB) {
	t.Helper()
	if err := oracleErr(q, got, flat); err != nil {
		t.Fatal(err)
	}
}

// oracleErr reports how got fails to answer q as the flat baseline does
// over flat: the same rows (over the baseline's columns — a factorised
// view flattens merged classes to one column per member), in an order the
// query's ORDER BY admits, and under LIMIT/OFFSET exactly the page whose
// sort keys the baseline's sorted answer puts there. Rows that tie on
// every ORDER BY key may appear in either order, as in SQL.
func oracleErr(q *query.Query, got *relation.Relation, flat rdb.DB) error {
	unpaged := *q
	unpaged.Limit, unpaged.Offset = 0, 0
	want, err := rdb.New().Run(&unpaged, flat)
	if err != nil {
		return fmt.Errorf("rdb: %w", err)
	}
	cols, err := columnIndices(got.Attrs, want.Attrs)
	if err != nil {
		return err
	}
	lo, hi := q.Offset, len(want.Tuples)
	if lo > hi {
		lo = hi
	}
	if q.Limit > 0 && lo+q.Limit < hi {
		hi = lo + q.Limit
	}
	if len(got.Tuples) != hi-lo {
		return fmt.Errorf("%d rows, baseline page [%d,%d) has %d", len(got.Tuples), lo, hi, hi-lo)
	}
	keys := make([]int, len(q.OrderBy))
	for i, o := range q.OrderBy {
		if keys[i] = want.ColIndex(o.Attr); keys[i] < 0 {
			return fmt.Errorf("order attribute %q not in baseline schema %v", o.Attr, want.Attrs)
		}
	}
	left := map[string]int{}
	for _, w := range want.Tuples {
		left[w.Key()]++
	}
	row := make(relation.Tuple, len(cols))
	for i, g := range got.Tuples {
		for c, j := range cols {
			row[c] = g[j]
		}
		for _, k := range keys {
			if w := want.Tuples[lo+i][k]; values.Compare(row[k], w) != 0 {
				return fmt.Errorf("row %d: sort key %s = %v, baseline has %v", i, want.Attrs[k], row[k], w)
			}
		}
		if left[row.Key()]--; left[row.Key()] < 0 {
			return fmt.Errorf("row %d: %v is not in the baseline answer (or repeats)", i, row)
		}
	}
	return nil
}

// paperQuery is one query of the paper's experimental set; r3 marks
// queries over the view R3 (the rest run on R1).
type paperQuery struct {
	name string
	mk   func() *query.Query
	r3   bool
}

// paperQueries returns the view queries Q1–Q13, the ORD family with and
// without LIMIT 10.
func paperQueries() []paperQuery {
	type tc = paperQuery
	cases := []tc{
		{name: "Q1", mk: workload.Q1}, {name: "Q2", mk: workload.Q2},
		{name: "Q3", mk: workload.Q3}, {name: "Q4", mk: workload.Q4},
		{name: "Q5", mk: workload.Q5}, {name: "Q6", mk: workload.Q6},
		{name: "Q7", mk: workload.Q7}, {name: "Q8", mk: workload.Q8},
		{name: "Q9", mk: workload.Q9},
	}
	for _, limit := range []int{0, 10} {
		limit := limit
		cases = append(cases,
			tc{name: fmt.Sprintf("Q10/limit=%d", limit), mk: func() *query.Query { return workload.Q10(limit) }},
			tc{name: fmt.Sprintf("Q11/limit=%d", limit), mk: func() *query.Query { return workload.Q11(limit) }},
			tc{name: fmt.Sprintf("Q12/limit=%d", limit), mk: func() *query.Query { return workload.Q12(limit) }},
			tc{name: fmt.Sprintf("Q13/limit=%d", limit), mk: func() *query.Query { return workload.Q13(limit) }, r3: true},
		)
	}
	return cases
}

// flatViews returns the flat relations the baseline evaluates the view
// queries on.
func flatViews(t *testing.T, ds *workload.Dataset) rdb.DB {
	t.Helper()
	r1, err := ds.FlatR1()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ds.FlatR2()
	if err != nil {
		t.Fatal(err)
	}
	r3, err := ds.R3()
	if err != nil {
		t.Fatal(err)
	}
	return rdb.DB{"R1": r1, "R2": r2, "R3": r3}
}

// TestOracleFlatQueries runs Q1–Q5 with the R1 join inlined through
// Run and Exec. "Exec" reads fresh copies of the relations, whose bases
// attach on that first use; "Exec/registered1" and "Exec/registered2"
// read the same relations as Run, from one Prepared: whichever of the
// three runs first attaches their bases, the others reuse them.
func TestOracleFlatQueries(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 1})
	db := DB(ds.DB())
	eng := New()
	for i := 1; i <= 5; i++ {
		q, err := workload.FlatAggQuery(i)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := eng.Prepare(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range map[string]func() (*Result, error){
			"Run":              func() (*Result, error) { return eng.Run(q, db) },
			"Exec":             func() (*Result, error) { return prep.Exec(plainCopy(db)) },
			"Exec/registered1": func() (*Result, error) { return prep.Exec(db) },
			"Exec/registered2": func() (*Result, error) { return prep.Exec(db) },
		} {
			t.Run(fmt.Sprintf("Q%d/%s", i, name), func(t *testing.T) {
				checkOracle(t, q, collectRows(t, run), rdb.DB(db))
			})
		}
	}
}

// TestOracleViewQueries runs Q1–Q13 (ORD with and without LIMIT)
// through RunOnView over the materialised views, after anchoring the
// views themselves: each must flatten to exactly the flat relation the
// baseline evaluates on.
func TestOracleViewQueries(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 1})
	cat := ds.Catalog()
	flat := flatViews(t, ds)
	r1, err := ds.FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	r3, err := ds.FactorisedR3()
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*fops.ARel{"R1": r1, "R3": r3} {
		if err := v.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := v.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		proj, err := got.Project(flat[name].Attrs...)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Tuples) != len(flat[name].Tuples) || !relation.EqualAsSets(proj, flat[name]) {
			t.Fatalf("%s: view flattens to %d tuples, flat relation has %d (or contents differ)",
				name, len(got.Tuples), len(flat[name].Tuples))
		}
	}
	eng := New()
	for _, c := range paperQueries() {
		view := r1
		if c.r3 {
			view = r3
		}
		t.Run(c.name, func(t *testing.T) {
			got := collectRows(t, func() (*Result, error) { return eng.RunOnView(c.mk(), view, cat) })
			checkOracle(t, c.mk(), got, flat)
		})
	}
}

// TestOracleAggregateEdgeCases runs every aggregation function over
// groups the table's identities and finaliser decide: a group whose
// argument is only NULL (inserted through a mutable catalogue), a group
// mixing NULLs with numbers, and filters that reject every tuple, so a
// global aggregate sees no tuples (COUNT 0, the rest NULL) and a grouped
// one has no groups. Each query runs through Run and Exec after a
// plan-template hit, over the ordered-by-aggregate path (vector order,
// AVG finalised from its fields) and the sort fallback (ORDER BY a
// composite), and must answer as internal/rdb does.
func TestOracleAggregateEdgeCases(t *testing.T) {
	m, err := CreateMutable(filepath.Join(t.TempDir(), "cat"), "edge", DB{
		"R": relation.MustNew("R", []string{"a", "b"}, []relation.Tuple{
			{iv(2), iv(5)}, {iv(2), iv(7)}, {iv(3), iv(4)}, {iv(4), iv(-9)}, {iv(4), iv(9)}, {iv(5), iv(12)},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, stmt := range []string{`INSERT INTO R VALUES (1, NULL)`, `INSERT INTO R VALUES (2, NULL)`} {
		mut, err := sql.ParseStatement(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Apply(context.Background(), mut.(*query.Mutation)); err != nil {
			t.Fatal(err)
		}
	}
	db := m.View()
	all := `COUNT(*) AS n, SUM(b) AS s, MIN(b) AS lo, MAX(b) AS hi, AVG(b) AS m`
	for _, text := range []string{
		// The avg-only ORDER BY and the COUNT-ordered vector path over a
		// NULL-only group: both panicked on NULL sums.
		`SELECT a, AVG(b) AS m FROM R GROUP BY a ORDER BY m`,
		`SELECT a, COUNT(*) AS n, AVG(b) AS m FROM R GROUP BY a ORDER BY n`,
		`SELECT a, ` + all + ` FROM R GROUP BY a`,
		`SELECT a, ` + all + ` FROM R GROUP BY a ORDER BY s DESC`,
		`SELECT a, ` + all + ` FROM R GROUP BY a ORDER BY lo`,
		`SELECT a, ` + all + ` FROM R GROUP BY a ORDER BY m DESC`,
		// Groups 2 and 5 tie on SUM 12; AVG (4 vs 12) must break the tie,
		// not the (sum, count) vector's count.
		`SELECT a, SUM(b) AS s, AVG(b) AS m FROM R GROUP BY a ORDER BY s, m`,
		`SELECT ` + all + ` FROM R WHERE b > 1000`,
		`SELECT a, ` + all + ` FROM R WHERE b > 1000 GROUP BY a ORDER BY m`,
		`SELECT ` + all + ` FROM R`,
	} {
		q, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		eng := New()
		for _, mode := range []string{"Run", "Exec"} {
			t.Run(mode+"/"+text, func(t *testing.T) {
				run := func() (*Result, error) { return eng.Run(q, db) }
				if mode == "Exec" {
					hits := eng.PlanTemplateStats().Hits
					prep, err := eng.Prepare(q, db)
					if err != nil {
						t.Fatal(err)
					}
					if eng.PlanTemplateStats().Hits == hits {
						t.Fatal("Prepare after Run missed the plan template")
					}
					run = func() (*Result, error) { return prep.Exec(db) }
				}
				checkOracle(t, q, collectRows(t, run), rdb.DB(db))
			})
		}
	}
}

// TestOracleRotatedPathOrders runs the served statements whose path orders
// lead with their ORDER BY (or GROUP BY) attributes through Prepare and
// Exec — twice each: the first execution builds the rotated bases, the
// second reuses them — and checks them against the baseline: the
// ordered aggregate a9, the streams s1 and s12, the orders o10 and o12
// at offset 0, at a deep offset and descending, and the fan-out shapes
// over R3, which is declared customer-first but ordered by date. The date-led
// scan of R3 needs no operator, and its deep page is a ranked seek.
func TestOracleRotatedPathOrders(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 2})
	db := DB(ds.DB())
	r3, err := ds.R3()
	if err != nil {
		t.Fatal(err)
	}
	db["R3"] = r3
	const r1Join = ` FROM Orders, Packages, Items WHERE package = package2 AND item = item2`
	r2Order := func(a, b, c, dir string) string {
		return fmt.Sprintf(`SELECT %[1]s, %[2]s, %[3]s, customer, price%[5]s ORDER BY %[1]s%[4]s, %[2]s%[4]s, %[3]s%[4]s, customer%[4]s`, a, b, c, dir, r1Join)
	}
	const byDate = `SELECT date, customer, package FROM R3 ORDER BY date, customer, package`
	var stmts []string
	for _, base := range []string{
		`SELECT date, package, SUM(price) AS total` + r1Join + ` GROUP BY date, package ORDER BY package, date`,
		`SELECT package, date, customer, SUM(price) AS total` + r1Join + ` GROUP BY package, date, customer`,
		`SELECT date, package, item` + r1Join + ` ORDER BY date, package, item`,
		r2Order("package", "date", "item", ""), r2Order("package", "date", "item", " DESC"),
		r2Order("date", "package", "item", ""), r2Order("date", "package", "item", " DESC"),
		byDate,
		`SELECT date, COUNT(*) AS n FROM R3 GROUP BY date ORDER BY date`,
		`SELECT customer, COUNT(*) AS n FROM R3 GROUP BY customer ORDER BY customer`,
	} {
		q, err := sql.Parse(base)
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		want, err := rdb.New().Run(q, rdb.DB(db))
		if err != nil {
			t.Fatal(err)
		}
		n := len(want.Tuples)
		stmts = append(stmts, base, base+` LIMIT 10`, fmt.Sprintf(`%s LIMIT 10 OFFSET %d`, base, n*9/10))
	}
	eng := New()
	for _, text := range stmts {
		q, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		prep, err := eng.Prepare(q, db)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		for i := 1; i <= 2; i++ {
			t.Run(fmt.Sprintf("%s/Exec%d", text, i), func(t *testing.T) {
				checkOracle(t, q, collectRows(t, func() (*Result, error) { return prep.Exec(db) }), rdb.DB(db))
			})
		}
	}

	page, err := sql.Parse(byDate + ` LIMIT 10 OFFSET 400`)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(page, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Plan.Ops) != 0 || !slices.Equal(prep.Orders[0], []string{"date", "customer", "package"}) {
		t.Fatalf("date-led scan of R3: path %v, plan %s; want the date-led path and no operators", prep.Orders[0], prep.Plan)
	}
	seeks := SeekSkipStats().SeekOffsets
	checkOracle(t, page, collectRows(t, func() (*Result, error) { return prep.Exec(db) }), rdb.DB(db))
	if SeekSkipStats().SeekOffsets == seeks {
		t.Fatal("the date-led page skipped linearly instead of seeking")
	}
}

// TestOracleRankedCounts runs the grouped counts of the fan-out
// workload (GROUP BY date and GROUP BY customer over R3) and the
// aggregates a4/a5 (SUM(price) by package and in total over the R1
// join) on a catalogue written to a file and loaded back, through
// Exec, whose bases are ranked, at P=1 and, with the
// fan-out floors dropped, at P=2 inside operator workers. Each must answer as internal/rdb
// does, and each must have read at least one count from the ranked
// index instead of walking the subtree.
func TestOracleRankedCounts(t *testing.T) {
	oldV, oldW := fops.MinParallelRebuildValues, fops.MinParallelRebuildWork
	fops.MinParallelRebuildValues, fops.MinParallelRebuildWork = 1, 1
	defer func() { fops.MinParallelRebuildValues, fops.MinParallelRebuildWork = oldV, oldW }()
	defer func(old bool) { frep.KernelStatsEnabled = old }(frep.KernelStatsEnabled)
	frep.KernelStatsEnabled = true

	ds := workload.Generate(workload.Config{Scale: 2})
	db := DB(ds.DB())
	r3, err := ds.R3()
	if err != nil {
		t.Fatal(err)
	}
	db["R3"] = r3
	path := filepath.Join(t.TempDir(), "w.fdbcat")
	if err := SaveCatalogFile(path, "w", db); err != nil {
		t.Fatal(err)
	}
	cat, err := LoadCatalogFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	const r1Join = ` FROM Orders, Packages, Items WHERE package = package2 AND item = item2`
	for _, par := range []int{1, 2} {
		eng := New()
		eng.Parallelism = par
		workers := fops.ParallelRebuildWorkers()
		for _, text := range []string{
			`SELECT date, COUNT(*) AS n FROM R3 GROUP BY date ORDER BY date`,
			`SELECT customer, COUNT(*) AS n FROM R3 GROUP BY customer ORDER BY customer`,
			`SELECT package, SUM(price) AS total` + r1Join + ` GROUP BY package`,
			`SELECT SUM(price) AS total` + r1Join,
		} {
			q, err := sql.Parse(text)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			prep, err := eng.Prepare(q, cat.DB)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			t.Run(fmt.Sprintf("P=%d/%s", par, text), func(t *testing.T) {
				frep.ResetKernelStats()
				checkOracle(t, q, collectRows(t, func() (*Result, error) { return prep.Exec(cat.DB) }), rdb.DB(db))
				if st := frep.ReadKernelStats(); st.AggRanked == 0 {
					t.Fatalf("no count was read from the ranked index: %+v", st)
				}
			})
		}
		if spawned := fops.ParallelRebuildWorkers() - workers; (par > 1) != (spawned > 0) {
			t.Errorf("P=%d: %d operator workers spawned", par, spawned)
		}
	}
}
