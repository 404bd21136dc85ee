package engine

// ORDER BY over aggregate outputs: the f-plan's γ/ρ/χ steps where
// plan.AggregateOrder holds, the flat sort where it does not. Either way
// the answer is the flat baseline's, row for row, and a Result can be
// enumerated any number of times.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/workload"
)

// tiesDB is T(c, p): groups 1 and 3 tie on SUM(p) = 10 and COUNT(*) = 2,
// group 2 ties with them on the sum alone, and groups 2 and 4 tie on the
// count alone.
func tiesDB() DB {
	return DB{"T": relation.MustNew("T", []string{"c", "p"}, []relation.Tuple{
		{iv(1), iv(4)}, {iv(1), iv(6)}, {iv(2), iv(10)}, {iv(3), iv(3)}, {iv(3), iv(7)}, {iv(4), iv(5)},
	})}
}

// viewOf factorises the relation name of db as a view.
func viewOf(t *testing.T, db DB, name string) (*Engine, func(q *query.Query) (*Result, error)) {
	t.Helper()
	res, err := New().Run(&query.Query{Relations: []string{name}}, db)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	view, _ := res.ARel.Clone()
	cat := []ftree.CatalogRelation{{Name: name, Attrs: db[name].Attrs, Size: db[name].Cardinality()}}
	e := New()
	return e, func(q *query.Query) (*Result, error) { return e.RunOnView(q, view, cat) }
}

// TestOrderByAggregateBesideAnotherAggregate orders by one aggregate of
// two, by both in either order, and by both with mixed directions. An
// ordered aggregate whose node also stores another aggregate must not
// let that one break its ties; those shapes take the flat sort. Every
// shape runs through Run, Exec after a template hit and RunOnView,
// serially and at two workers, under both planners, and must equal the
// baseline row for row.
func TestOrderByAggregateBesideAnotherAggregate(t *testing.T) {
	db := tiesDB()
	const sel = `SELECT c, SUM(p) AS s, COUNT(*) AS n FROM T GROUP BY c ORDER BY `
	for _, order := range []string{"s, c", "n, s DESC", "s DESC, n", "s, n", "n DESC, s DESC", "c, s", "s"} {
		q := mustParse(t, sel+order)
		want, err := rdb.New().Run(q, rdb.DB(db))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2} {
			for _, exhaustive := range []bool{false, true} {
				eng := &Engine{PartialAgg: true, Exhaustive: exhaustive, Parallelism: par}
				veng, view := viewOf(t, db, "T")
				veng.Exhaustive, veng.Parallelism = exhaustive, par
				modes := map[string]func() (*Result, error){
					"Run":            func() (*Result, error) { return eng.Run(q, db) },
					"Exec after hit": func() (*Result, error) { return execAfterHit(t, eng, q, db) },
					"RunOnView":      func() (*Result, error) { return view(q) },
				}
				for mode, run := range modes {
					name := fmt.Sprintf("ORDER BY %s (%s, P=%d, exhaustive=%v)", order, mode, par, exhaustive)
					diffOrdered(t, name, want, collectRows(t, run))
				}
			}
		}
	}
}

// execAfterHit prepares q twice on eng, requiring the second Prepare to
// bind the first one's template, and executes the binding.
func execAfterHit(t *testing.T, eng *Engine, q *query.Query, db DB) (*Result, error) {
	t.Helper()
	if _, err := eng.Prepare(q, db); err != nil {
		return nil, err
	}
	hits := eng.PlanTemplateStats().Hits
	p, err := eng.Prepare(q, db)
	if err != nil {
		return nil, err
	}
	if eng.PlanTemplateStats().Hits == hits {
		t.Fatal("second Prepare missed the plan template")
	}
	return p.Exec(db)
}

// drainRows enumerates res once through Rows.
func drainRows(t *testing.T, res *Result) *relation.Relation {
	t.Helper()
	rows, err := res.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var ts []relation.Tuple
	for rows.Next() {
		ts = append(ts, rows.Tuple().Clone())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	return relation.MustNew("result", res.Schema(), ts)
}

// TestOrderByAggregateReenumerates enumerates one Result of an
// aggregate-ordered query again and again, through Rows, TotalCount and
// Relation: each answers the baseline's rows. Enumeration runs no
// operator, so EXPLAIN reads the same before and after, and lists the
// planned ρ and χ steps. a7 is the agg workload's top 10 by revenue.
func TestOrderByAggregateReenumerates(t *testing.T) {
	for _, tc := range []struct {
		db    DB
		text  string
		steps []string
	}{
		{tiesDB(), `SELECT c, SUM(p) AS s FROM T GROUP BY c ORDER BY s DESC, c`, []string{"→s)", "χ(s)"}},
		{DB(workload.Generate(workload.Config{Scale: 1}).DB()), aggOrderA7, []string{"→revenue)", "χ(revenue)"}},
	} {
		q := mustParse(t, tc.text)
		want, err := rdb.New().Run(q, rdb.DB(tc.db))
		if err != nil {
			t.Fatal(err)
		}
		res, err := New().Run(q, tc.db)
		if err != nil {
			t.Fatal(err)
		}
		explain := res.Explain()
		for i := 0; i < 3; i++ {
			diffOrdered(t, fmt.Sprintf("%s: Rows %d", tc.text, i), want, drainRows(t, res))
		}
		unpaged := *q
		unpaged.Limit = 0
		all, err := rdb.New().Run(&unpaged, rdb.DB(tc.db))
		if err != nil {
			t.Fatal(err)
		}
		if n, err := res.TotalCount(); err != nil || n != int64(len(all.Tuples)) {
			t.Fatalf("%s: TotalCount = %d, %v; want %d", tc.text, n, err, len(all.Tuples))
		}
		diffOrdered(t, tc.text+": Rows after TotalCount", want, drainRows(t, res))
		got, err := res.Relation()
		if err != nil {
			t.Fatalf("%s: Relation: %v", tc.text, err)
		}
		diffOrdered(t, tc.text+": Relation", want, got)
		if after := res.Explain(); after != explain {
			t.Fatalf("%s: EXPLAIN changed by enumeration:\nbefore:\n%s\nafter:\n%s", tc.text, explain, after)
		}
		for _, step := range append(tc.steps, "ρ(") {
			if !strings.Contains(explain, step) {
				t.Fatalf("%s: EXPLAIN lacks %q:\n%s", tc.text, step, explain)
			}
		}
		res.Close()
	}
}

// FuzzOrderByAggregate builds a small relation R(g, h, v) with NULLs, a
// GROUP BY over g and h, a subset of COUNT/SUM/MIN/MAX/AVG and an ORDER
// BY mixing group attributes and aggregate outputs with directions, all
// from the fuzz bytes, which also pick the planner. Each case must answer
// as the baseline does, row for row, on two successive enumerations of
// one Result.
func FuzzOrderByAggregate(f *testing.F) {
	f.Add([]byte{0x07, 0x03, 0x03, 0x81, 0x02, 1, 4, 2, 1, 6, 3, 2, 10, 4, 3, 3})
	f.Add([]byte{0x1f, 0x01, 0x02, 0x04, 0x80, 0, 0, 1, 2, 2, 9, 1, 1, 7, 3, 0, 2})
	for seed := int64(0); seed < 8; seed++ {
		b := make([]byte, 24)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		aggMask, groupMask, orderBytes, rows := data[0], data[1], data[2:5], data[5:]
		var ts []relation.Tuple
		for i := 0; i+2 < len(rows) && len(ts) < 16; i += 3 {
			v := iv(int64(rows[i+2]%9) - 3)
			if rows[i+2]%9 == 8 {
				v = values.NullValue()
			}
			ts = append(ts, relation.Tuple{iv(int64(rows[i] % 3)), iv(int64(rows[i+1] % 3)), v})
		}
		if len(ts) == 0 {
			return
		}
		db := DB{"R": relation.MustNew("R", []string{"g", "h", "v"}, ts).Dedup()}
		q := &query.Query{Relations: []string{"R"}}
		for i, g := range []string{"g", "h"} {
			if groupMask&(1<<i) != 0 {
				q.GroupBy = append(q.GroupBy, g)
			}
		}
		if len(q.GroupBy) == 0 {
			q.GroupBy = []string{"g"}
		}
		if groupMask&4 != 0 && len(q.GroupBy) == 2 {
			q.GroupBy[0], q.GroupBy[1] = q.GroupBy[1], q.GroupBy[0]
		}
		for i, a := range []query.Aggregate{
			{Fn: query.Count, As: "n"}, {Fn: query.Sum, Arg: "v", As: "s"}, {Fn: query.Min, Arg: "v", As: "lo"},
			{Fn: query.Max, Arg: "v", As: "hi"}, {Fn: query.Avg, Arg: "v", As: "a"},
		} {
			if aggMask&(1<<i) != 0 {
				q.Aggregates = append(q.Aggregates, a)
			}
		}
		if len(q.Aggregates) == 0 {
			q.Aggregates = []query.Aggregate{{Fn: query.Count, As: "n"}}
		}
		outs := q.OutputAttrs()
		taken := map[string]bool{}
		for _, b := range orderBytes {
			if a := outs[int(b&0x7f)%len(outs)]; !taken[a] {
				taken[a] = true
				q.OrderBy = append(q.OrderBy, query.OrderItem{Attr: a, Desc: b&0x80 != 0})
			}
		}
		want, err := rdb.New().Run(q, rdb.DB(db))
		if err != nil {
			t.Fatalf("%s: rdb: %v", q, err)
		}
		res, err := (&Engine{PartialAgg: true, Exhaustive: groupMask&8 != 0}).Run(q, db)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		defer res.Close()
		for i := 0; i < 2; i++ {
			got, err := res.Relation()
			if err != nil {
				t.Fatalf("%s: enumeration %d: %v", q, i, err)
			}
			diffOrdered(t, fmt.Sprintf("%s: enumeration %d", q, i), want, got)
		}
	})
}
