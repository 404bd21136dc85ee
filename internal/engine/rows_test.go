package engine

// Cursor-path golden suite: for every query of the workload's
// experimental set, the streaming Rows cursor must produce exactly the
// rows of ForEach/Relation, and OFFSET must slice the stream without
// changing its contents.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/workload"
)

// collectCursor runs a query and drains it through the Rows cursor.
func collectCursor(t *testing.T, run func() (*Result, error)) *relation.Relation {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	rows, err := res.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out []relation.Tuple
	for rows.Next() {
		out = append(out, rows.Tuple().Clone())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rel, err := relation.New("cursor", rows.Columns(), out)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestGoldenCursorMatchesForEach runs the workload view queries through
// ForEach (via Relation) and through the Rows cursor and requires
// identical rows.
func TestGoldenCursorMatchesForEach(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 1})
	cat := ds.Catalog()
	r1, err := ds.FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	r3, err := ds.FactorisedR3()
	if err != nil {
		t.Fatal(err)
	}
	eng := New()
	for _, c := range paperQueries() {
		view := r1
		if c.r3 {
			view = r3
		}
		run := func() (*Result, error) { return eng.RunOnView(c.mk(), view, cat) }
		t.Run(c.name, func(t *testing.T) {
			diffOrdered(t, c.name, collectRows(t, run), collectCursor(t, run))
		})
	}
}

// TestGoldenCursorFlatQueries covers the Prepare/Exec join path through
// the cursor.
func TestGoldenCursorFlatQueries(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 1})
	db := DB(ds.DB())
	eng := New()
	for i := 1; i <= 5; i++ {
		q, err := workload.FlatAggQuery(i)
		if err != nil {
			t.Fatal(err)
		}
		viaForEach := collectRows(t, func() (*Result, error) { return eng.Run(q, db) })
		q2, _ := workload.FlatAggQuery(i)
		viaCursor := collectCursor(t, func() (*Result, error) { return eng.Run(q2, db) })
		diffOrdered(t, fmt.Sprintf("flat-Q%d", i), viaForEach, viaCursor)
	}
}

// TestOffsetSlicesStream asserts that LIMIT n OFFSET m yields exactly
// rows [m, m+n) of the unpaged stream, for SPJ, grouped and
// aggregate-ordered queries.
func TestOffsetSlicesStream(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 1})
	db := DB(ds.DB())
	cases := []struct {
		name string
		mk   func() *query.Query
	}{
		{"spj-ordered", func() *query.Query {
			return &query.Query{
				Relations: []string{"Orders"},
				OrderBy: []query.OrderItem{
					{Attr: "customer"}, {Attr: "date"}, {Attr: "package"},
				},
			}
		}},
		{"grouped", func() *query.Query { q, _ := workload.FlatAggQuery(2); return q }},
		{"agg-ordered", func() *query.Query { q, _ := workload.FlatAggQuery(4); return q }},
	}
	eng := New()
	for _, c := range cases {
		base := c.mk()
		base.Limit = 0
		base.Offset = 0
		full := collectCursor(t, func() (*Result, error) { return eng.Run(base, db) })
		n := len(full.Tuples)
		if n < 4 {
			t.Fatalf("%s: only %d rows; test needs more", c.name, n)
		}
		for _, page := range []struct{ limit, offset int }{
			{0, 1}, {2, 0}, {2, 2}, {3, n - 2}, {2, n}, {2, n + 5},
		} {
			q := c.mk()
			q.Limit = page.limit
			q.Offset = page.offset
			got := collectCursor(t, func() (*Result, error) { return eng.Run(q, db) })
			lo := page.offset
			if lo > n {
				lo = n
			}
			hi := n
			if page.limit > 0 && lo+page.limit < hi {
				hi = lo + page.limit
			}
			want := full.Tuples[lo:hi]
			if len(got.Tuples) != len(want) {
				t.Fatalf("%s limit=%d offset=%d: %d rows, want %d",
					c.name, page.limit, page.offset, len(got.Tuples), len(want))
			}
			for i := range want {
				if relation.Compare(got.Tuples[i], want[i]) != 0 {
					t.Fatalf("%s limit=%d offset=%d row %d: %v, want %v",
						c.name, page.limit, page.offset, i, got.Tuples[i], want[i])
				}
			}
		}
	}
}

// TestResultClosedGuards asserts Close is idempotent and that every
// enumeration API refuses a closed Result with ErrClosed instead of
// touching the recycled store.
func TestResultClosedGuards(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 1})
	db := DB(ds.DB())
	q, err := workload.FlatAggQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := New()
	res, err := eng.Run(q, db)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}

	before := storeReturns.Load()
	res.Close()
	res.Close() // idempotent: the store must be returned exactly once
	if d := storeReturns.Load() - before; d != 1 {
		t.Fatalf("store returned %d times across double Close, want 1", d)
	}

	// The open cursor notices the close instead of reading freed slabs.
	if rows.Next() {
		t.Fatal("Next succeeded on a closed result")
	}
	if !errors.Is(rows.Err(), ErrClosed) {
		t.Fatalf("rows.Err() = %v, want ErrClosed", rows.Err())
	}

	if _, err := res.Rows(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rows after Close = %v, want ErrClosed", err)
	}
	if err := res.ForEach(func(relation.Tuple) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Fatalf("ForEach after Close = %v, want ErrClosed", err)
	}
	if _, err := res.Relation(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Relation after Close = %v, want ErrClosed", err)
	}
	if _, err := res.Count(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Count after Close = %v, want ErrClosed", err)
	}
}

// TestRowsScan covers the Scan conversions.
func TestRowsScan(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 1})
	db := DB(ds.DB())
	q, err := workload.FlatAggQuery(1) // group attr + count
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Run(q, db)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	rows, err := res.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no rows")
	}
	nCols := len(rows.Columns())
	dest := make([]any, nCols)
	ptrs := make([]any, nCols)
	for i := range dest {
		ptrs[i] = &dest[i]
	}
	if err := rows.Scan(ptrs...); err != nil {
		t.Fatal(err)
	}
	for i, v := range dest {
		if v == nil {
			t.Fatalf("column %d scanned to nil: %v", i, rows.Tuple())
		}
	}
	if err := rows.Scan(); err == nil {
		t.Fatal("Scan with wrong arity succeeded")
	}

	// Scanning a float column into *int64 must refuse, not truncate.
	var f float64 = 1.5
	v := values.NewFloat(f)
	var i64 int64
	if err := scanValue(v, &i64); err == nil {
		t.Fatal("scanning a float into *int64 succeeded (would truncate)")
	}
	if err := scanValue(v, &f); err != nil {
		t.Fatalf("scanning a float into *float64: %v", err)
	}

	// After exhaustion, Scan must error instead of repeating the last row.
	for rows.Next() {
	}
	if err := rows.Scan(ptrs...); err == nil {
		t.Fatal("Scan after exhaustion succeeded with stale row")
	}
	// And after Close likewise.
	rows2, err := res.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rows2.Next() {
		t.Fatal("no rows")
	}
	rows2.Close()
	if err := rows2.Scan(ptrs...); err == nil {
		t.Fatal("Scan after Close succeeded with stale row")
	}
}
