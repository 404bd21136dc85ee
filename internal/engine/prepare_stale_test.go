package engine

// Regression suite for the stale-plan bug: a cached Prepared executed
// against one view generation must serve the next generation's rows —
// not stale ones — when re-executed after DML. Each write publishes new
// relation pointers, which are new keys of the base registry.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/values"
)

func pizzeriaRevenueQuery() *query.Query {
	return &query.Query{
		Relations:  []string{"Orders", "Pizzas", "Items"},
		Equalities: pizzeriaEqualities(),
		GroupBy:    []string{"customer"},
		Aggregates: []query.Aggregate{{Fn: query.Count, As: "orders"}},
		OrderBy:    []query.OrderItem{{Attr: "customer"}},
	}
}

// TestPreparedSeesRowsInsertedAfterSnapshot: the core regression. The
// shared snapshot is built, a row is inserted, and the same Prepared is
// re-executed against the new view — the new customer must appear.
func TestPreparedSeesRowsInsertedAfterSnapshot(t *testing.T) {
	m := newTestMutable(t)
	q := pizzeriaRevenueQuery()
	prep, err := New().Prepare(q, m.View())
	if err != nil {
		t.Fatal(err)
	}
	before := collectRows(t, func() (*Result, error) { return prep.Exec(m.View()) })
	for _, tp := range before.Tuples {
		if tp[0].Str() == "Zoe" {
			t.Fatal("Zoe present before the insert")
		}
	}

	apply(t, m, ins("Orders", []values.Value{sv("Zoe"), sv("Monday"), sv("Hawaii")}))

	after := collectRows(t, func() (*Result, error) { return prep.Exec(m.View()) })
	if len(after.Tuples) != len(before.Tuples)+1 {
		t.Fatalf("after insert: %d groups, want %d", len(after.Tuples), len(before.Tuples)+1)
	}
	found := false
	for _, tp := range after.Tuples {
		if tp[0].Str() == "Zoe" {
			found = true
		}
	}
	if !found {
		t.Fatal("cached plan served stale data: inserted customer missing")
	}

	// And the result must equal a rebuild of the same view from flat
	// tuples.
	fresh := collectRows(t, func() (*Result, error) { return prep.Exec(plainCopy(m.View())) })
	diffOrdered(t, "shared-vs-fresh", fresh, after)
}

// TestPreparedSeesDeletesAndUpserts: same regression for the other ops.
func TestPreparedSeesDeletesAndUpserts(t *testing.T) {
	m := newTestMutable(t)
	q := pizzeriaRevenueQuery()
	prep, err := New().Prepare(q, m.View())
	if err != nil {
		t.Fatal(err)
	}
	before := collectRows(t, func() (*Result, error) { return prep.Exec(m.View()) })

	apply(t, m, &query.Mutation{Op: query.OpDelete, Relation: "Orders", Where: []query.Filter{
		{Attr: "customer", Const: sv("Mario")},
	}})
	after := collectRows(t, func() (*Result, error) { return prep.Exec(m.View()) })
	if len(after.Tuples) != len(before.Tuples)-1 {
		t.Fatalf("after delete: %d groups, want %d", len(after.Tuples), len(before.Tuples)-1)
	}
	for _, tp := range after.Tuples {
		if tp[0].Str() == "Mario" {
			t.Fatal("cached plan served a deleted customer")
		}
	}

	apply(t, m, &query.Mutation{Op: query.OpUpsert, Relation: "Items", Rows: [][]values.Value{{sv("ham"), iv(40)}}})
	shared := collectRows(t, func() (*Result, error) { return prep.Exec(m.View()) })
	fresh := collectRows(t, func() (*Result, error) { return prep.Exec(plainCopy(m.View())) })
	diffOrdered(t, "post-upsert", fresh, shared)
}

// TestPreparedSharedSnapshotStableWithoutDML: with no writes, repeated
// executions read the bases the first one made and agree with it.
func TestPreparedSharedSnapshotStableWithoutDML(t *testing.T) {
	m := newTestMutable(t)
	q := pizzeriaRevenueQuery()
	prep, err := New().Prepare(q, m.View())
	if err != nil {
		t.Fatal(err)
	}
	base := collectRows(t, func() (*Result, error) { return prep.Exec(plainCopy(m.View())) })
	collectRows(t, func() (*Result, error) { return prep.Exec(m.View()) })
	builds := baseBuilds.Load()
	for rep := 0; rep < 3; rep++ {
		got := collectRows(t, func() (*Result, error) { return prep.Exec(m.View()) })
		diffOrdered(t, "stable", base, got)
	}
	if d := baseBuilds.Load() - builds; d != 0 {
		t.Fatalf("%d bases rebuilt without a write", d)
	}
}

// TestTemplateBindingsSeeWrites: two statements of one shape, prepared
// before a write, are bindings of one template and run from the same
// bases (the second builds none); both must see the write. A
// third statement prepared after the write meets relations the template
// was not planned against, so it replaces the entry instead of adding
// one.
func TestTemplateBindingsSeeWrites(t *testing.T) {
	m := newTestMutable(t)
	eng := New()
	shape := func(notOn string) *query.Query {
		q := pizzeriaRevenueQuery()
		q.Filters = []query.Filter{{Attr: "date", Op: fops.NE, Const: sv(notOn)}}
		return q
	}
	var preps []*Prepared
	var builds []int64
	for _, day := range []string{"Monday", "Tuesday"} {
		p, err := eng.Prepare(shape(day), m.View())
		if err != nil {
			t.Fatal(err)
		}
		before := baseBuilds.Load()
		collectRows(t, func() (*Result, error) { return p.Exec(m.View()) })
		preps, builds = append(preps, p), append(builds, baseBuilds.Load()-before)
	}
	if &preps[0].Orders[0] != &preps[1].Orders[0] || builds[1] != 0 {
		t.Fatalf("two statements of one shape do not share the template's bases (builds %v)", builds)
	}

	apply(t, m, ins("Orders", []values.Value{sv("Zoe"), sv("Sunday"), sv("Hawaii")}))

	for i, p := range preps {
		after := collectRows(t, func() (*Result, error) { return p.Exec(m.View()) })
		fresh := collectRows(t, func() (*Result, error) { return New().Run(p.Query, plainCopy(m.View())) })
		diffOrdered(t, fmt.Sprintf("binding %d after the write", i), fresh, after)
		found := false
		for _, tp := range after.Tuples {
			found = found || tp[0].Str() == "Zoe"
		}
		if !found {
			t.Fatalf("binding %d served the snapshot from before the write", i)
		}
	}

	third, err := eng.Prepare(shape("Friday"), m.View())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := eng.templates.lru().Get(eng.templateKey(third.Query)); v.(*planTemplate).rels[0] != m.View()["Orders"] {
		t.Fatal("statement prepared after the write did not replace the template")
	}
	if st := eng.PlanTemplateStats(); st.Size != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("template stats %+v, want 1 entry, 1 hit, 2 misses", st)
	}
	diffOrdered(t, "third",
		collectRows(t, func() (*Result, error) { return New().Run(third.Query, plainCopy(m.View())) }),
		collectRows(t, func() (*Result, error) { return third.Exec(m.View()) }))
}

// TestPreparedConcurrentExecSharedDuringWrites: hammer Exec from
// several goroutines while a writer streams inserts; every result must
// be internally consistent (all rows from one published view) and the
// final result must include every write.
func TestPreparedConcurrentExecSharedDuringWrites(t *testing.T) {
	m := newTestMutable(t)
	q := pizzeriaRevenueQuery()
	prep, err := New().Prepare(q, m.View())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			name := sv(string(rune('A'+i)) + "-cust")
			if _, err := m.Apply(ctx, ins("Orders", []values.Value{name, sv("Sunday"), sv("Hawaii")})); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 40; i++ {
		res, err := prep.ExecContext(ctx, m.View())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.Relation(); err != nil {
			res.Close()
			t.Fatal(err)
		}
		res.Close()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	final := collectRows(t, func() (*Result, error) { return prep.Exec(m.View()) })
	count := 0
	for _, tp := range final.Tuples {
		s := tp[0].Str()
		if len(s) > 5 && s[1:] == "-cust" {
			count++
		}
	}
	if count != 20 {
		t.Fatalf("final exec saw %d inserted customers, want 20", count)
	}
}

// TestBaseOrdersRacePublish races the first queries of two path orders
// over one relation against a writer whose every insert publishes a new
// generation: each query may build its order's base on a relation the
// writer's next publish replaces. Every answer must equal a rebuild from
// flat tuples of the view it ran against.
func TestBaseOrdersRacePublish(t *testing.T) {
	m := newTestMutable(t)
	ctx := context.Background()
	start := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 20; i++ {
			row := []values.Value{sv(fmt.Sprintf("r%02d", i)), sv("Sunday"), sv("Hawaii")}
			if _, err := m.Apply(ctx, ins("Orders", row)); err != nil {
				errs <- err
				return
			}
		}
	}()
	for _, text := range []string{
		`SELECT customer, date, pizza FROM Orders ORDER BY date, customer, pizza`,
		`SELECT pizza, COUNT(*) AS n FROM Orders GROUP BY pizza ORDER BY pizza`,
	} {
		q, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(text string) {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				view := m.View()
				got, err := New().RunContext(ctx, q, view)
				if err != nil {
					errs <- err
					return
				}
				rel, err := got.Relation()
				got.Close()
				if err != nil {
					errs <- err
					return
				}
				want, err := New().RunContext(ctx, q, plainCopy(view))
				if err != nil {
					errs <- err
					return
				}
				wrel, err := want.Relation()
				want.Close()
				if err != nil {
					errs <- err
					return
				}
				if fmt.Sprint(rel.Tuples) != fmt.Sprint(wrel.Tuples) {
					errs <- fmt.Errorf("%s: %v, rebuilt %v", text, rel.Tuples, wrel.Tuples)
					return
				}
			}
		}(text)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
