package engine

// Regression suite for the stale-plan bug: a cached Prepared whose
// ExecShared snapshot was built against one view generation must rebuild
// — not serve stale rows — when re-executed after DML.

import (
	"context"
	"fmt"
	"testing"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/query"
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
	before := collectRows(t, func() (*Result, error) { return prep.ExecShared(m.View()) })
	for _, tp := range before.Tuples {
		if tp[0].Str() == "Zoe" {
			t.Fatal("Zoe present before the insert")
		}
	}

	apply(t, m, ins("Orders", []values.Value{sv("Zoe"), sv("Monday"), sv("Hawaii")}))

	after := collectRows(t, func() (*Result, error) { return prep.ExecShared(m.View()) })
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

	// And the result must equal a fresh Exec of the same view.
	fresh := collectRows(t, func() (*Result, error) { return prep.Exec(m.View()) })
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
	before := collectRows(t, func() (*Result, error) { return prep.ExecShared(m.View()) })

	apply(t, m, &query.Mutation{Op: query.OpDelete, Relation: "Orders", Where: []query.Filter{
		{Attr: "customer", Const: sv("Mario")},
	}})
	after := collectRows(t, func() (*Result, error) { return prep.ExecShared(m.View()) })
	if len(after.Tuples) != len(before.Tuples)-1 {
		t.Fatalf("after delete: %d groups, want %d", len(after.Tuples), len(before.Tuples)-1)
	}
	for _, tp := range after.Tuples {
		if tp[0].Str() == "Mario" {
			t.Fatal("cached plan served a deleted customer")
		}
	}

	apply(t, m, &query.Mutation{Op: query.OpUpsert, Relation: "Items", Rows: [][]values.Value{{sv("ham"), iv(40)}}})
	shared := collectRows(t, func() (*Result, error) { return prep.ExecShared(m.View()) })
	fresh := collectRows(t, func() (*Result, error) { return prep.Exec(m.View()) })
	diffOrdered(t, "post-upsert", fresh, shared)
}

// TestPreparedSharedSnapshotStableWithoutDML: with no writes, repeated
// ExecShared calls keep the cached snapshot (pointer-identity check via
// the rels guard) and agree with Exec.
func TestPreparedSharedSnapshotStableWithoutDML(t *testing.T) {
	m := newTestMutable(t)
	q := pizzeriaRevenueQuery()
	prep, err := New().Prepare(q, m.View())
	if err != nil {
		t.Fatal(err)
	}
	base := collectRows(t, func() (*Result, error) { return prep.Exec(m.View()) })
	for rep := 0; rep < 3; rep++ {
		got := collectRows(t, func() (*Result, error) { return prep.ExecShared(m.View()) })
		diffOrdered(t, "stable", base, got)
	}
}

// TestTemplateBindingsSeeWrites: two statements of one shape, prepared
// before a write, are bindings of one template and share its snapshot;
// both must see the write. A third statement prepared after the write
// meets relations the template was not planned against, so it replaces
// the entry instead of adding one.
func TestTemplateBindingsSeeWrites(t *testing.T) {
	m := newTestMutable(t)
	eng := New()
	shape := func(notOn string) *query.Query {
		q := pizzeriaRevenueQuery()
		q.Filters = []query.Filter{{Attr: "date", Op: fops.NE, Const: sv(notOn)}}
		return q
	}
	var preps []*Prepared
	for _, day := range []string{"Monday", "Tuesday"} {
		p, err := eng.Prepare(shape(day), m.View())
		if err != nil {
			t.Fatal(err)
		}
		collectRows(t, func() (*Result, error) { return p.ExecShared(m.View()) })
		preps = append(preps, p)
	}
	if preps[0].shared != preps[1].shared {
		t.Fatal("two statements of one shape do not share the template's snapshot")
	}

	apply(t, m, ins("Orders", []values.Value{sv("Zoe"), sv("Sunday"), sv("Hawaii")}))

	for i, p := range preps {
		after := collectRows(t, func() (*Result, error) { return p.ExecShared(m.View()) })
		fresh := collectRows(t, func() (*Result, error) { return New().Run(p.Query, m.View()) })
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
	if third.shared == preps[0].shared {
		t.Fatal("statement prepared after the write bound to the old template")
	}
	if v, _ := eng.templates.lru().Get(eng.templateKey(third.Query)); v.(*planTemplate).base != third.shared {
		t.Fatal("statement prepared after the write did not replace the template")
	}
	if st := eng.PlanTemplateStats(); st.Size != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("template stats %+v, want 1 entry, 1 hit, 2 misses", st)
	}
	diffOrdered(t, "third",
		collectRows(t, func() (*Result, error) { return New().Run(third.Query, m.View()) }),
		collectRows(t, func() (*Result, error) { return third.ExecShared(m.View()) }))
}

// TestPreparedConcurrentExecSharedDuringWrites: hammer ExecShared from
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
		res, err := prep.ExecSharedContext(ctx, m.View())
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
	final := collectRows(t, func() (*Result, error) { return prep.ExecShared(m.View()) })
	count := 0
	for _, tp := range final.Tuples {
		s := tp[0].Str()
		if len(s) > 5 && s[1:] == "-cust" {
			count++
		}
	}
	if count != 20 {
		t.Fatalf("final shared exec saw %d inserted customers, want 20", count)
	}
}
