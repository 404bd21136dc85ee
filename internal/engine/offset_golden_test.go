package engine

// OFFSET boundary goldens (satellite of the parallel-execution PR): an
// OFFSET at, or past, the end of the result must yield an empty result
// with rowCount 0 — not an error and not a stuck cursor — on every
// enumeration path (flat, grouped, agg-ordered, view) and at every
// parallelism level, matching the rdb baseline's slice semantics.

import (
	"context"
	"fmt"
	"testing"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// offsetDB builds a small two-attribute relation shared by the engine
// and the rdb baseline.
func offsetDB(t *testing.T, rows int) (DB, rdb.DB) {
	t.Helper()
	ts := make([]relation.Tuple, rows)
	for i := range ts {
		ts[i] = relation.Tuple{
			values.NewInt(int64(i)),
			values.NewInt(int64(i % 7)),
		}
	}
	rel, err := relation.New("Big", []string{"k", "v"}, ts)
	if err != nil {
		t.Fatal(err)
	}
	return DB{"Big": rel}, rdb.DB{"Big": rel}
}

// TestOffsetPastEndGolden sweeps offsets across and past the result
// size on the flat, grouped and agg-ordered paths, diffing against the
// rdb baseline row for row.
func TestOffsetPastEndGolden(t *testing.T) {
	const rows = 50
	db, flat := offsetDB(t, rows)
	cases := []struct {
		name   string
		groups int
		mk     func(offset, limit int) *query.Query
	}{
		{"flat-ordered", rows, func(offset, limit int) *query.Query {
			return &query.Query{
				Relations: []string{"Big"},
				OrderBy:   []query.OrderItem{{Attr: "k"}},
				Offset:    offset, Limit: limit,
			}
		}},
		{"grouped", 7, func(offset, limit int) *query.Query {
			return &query.Query{
				Relations:  []string{"Big"},
				GroupBy:    []string{"v"},
				Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}},
				OrderBy:    []query.OrderItem{{Attr: "v"}},
				Offset:     offset, Limit: limit,
			}
		}},
		{"agg-ordered", 7, func(offset, limit int) *query.Query {
			return &query.Query{
				Relations:  []string{"Big"},
				GroupBy:    []string{"v"},
				Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "k", As: "s"}},
				OrderBy:    []query.OrderItem{{Attr: "s", Desc: true}},
				Offset:     offset, Limit: limit,
			}
		}},
	}
	for _, par := range []int{1, 4} {
		eng := &Engine{PartialAgg: true, Parallelism: par}
		for _, c := range cases {
			offsets := []int{0, c.groups - 1, c.groups, c.groups + 1, c.groups * 10, 1 << 20}
			for _, off := range offsets {
				for _, limit := range []int{0, 3} {
					name := fmt.Sprintf("P=%d/%s/offset=%d/limit=%d", par, c.name, off, limit)
					want, err := (&rdb.Engine{}).Run(c.mk(off, limit), flat)
					if err != nil {
						t.Fatalf("%s: rdb: %v", name, err)
					}
					got := collectRows(t, func() (*Result, error) { return eng.Run(c.mk(off, limit), db) })
					diffOrdered(t, name, want, got)
					if off >= c.groups && len(got.Tuples) != 0 {
						t.Fatalf("%s: offset past end yielded %d rows, want 0", name, len(got.Tuples))
					}
				}
			}
		}
	}
}

// TestOffsetPastEndCursorNotStuck drives the cursor API directly with
// an offset past the end: Next must return false immediately with a
// nil Err, and repeated Next calls must stay false (no stuck cursor).
func TestOffsetPastEndCursorNotStuck(t *testing.T) {
	db, _ := offsetDB(t, 50)
	eng := New()
	q := &query.Query{
		Relations: []string{"Big"},
		OrderBy:   []query.OrderItem{{Attr: "k"}},
		Offset:    1000,
	}
	res, err := eng.Run(q, db)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	rows, err := res.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for i := 0; i < 3; i++ {
		if rows.Next() {
			t.Fatalf("Next() = true on offset past end (call %d)", i)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil", err)
	}
	// Count through the materialising path as well.
	n, err := res.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("Count = %d, want 0", n)
	}
}

// TestOffsetPastEndView covers the view path (RunOnView) including a
// skip that spans the grouped enumerator's global-group case.
func TestOffsetPastEndView(t *testing.T) {
	db, _ := offsetDB(t, 50)
	f := ftree.New()
	f.NewRelationPath("k", "v")
	view, err := fops.FromRelationStore(frep.NewStore(), db["Big"], f)
	if err != nil {
		t.Fatal(err)
	}
	cat := []ftree.CatalogRelation{{Name: "Big", Attrs: []string{"k", "v"}, Size: 50}}
	eng := New()
	for _, q := range []*query.Query{
		{Relations: []string{"Big"}, OrderBy: []query.OrderItem{{Attr: "k"}}, Offset: 100},
		{Relations: []string{"Big"}, Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "v", As: "s"}}, Offset: 5},
	} {
		res, err := eng.RunOnView(q, view, cat)
		if err != nil {
			t.Fatal(err)
		}
		n, err := res.Count()
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if n != 0 {
			t.Fatalf("%s: Count = %d, want 0", q, n)
		}
		res.Close()
	}
}
