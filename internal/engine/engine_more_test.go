package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
)

// The exhaustive (Dijkstra) planner must agree with RDB too.
func TestExhaustiveDifferentialProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomChainDB(rng)
		q := randomAggQuery(rng)
		ref, err := rdb.New().Run(q, rdb.DB(db))
		if err != nil {
			return false
		}
		e := &Engine{PartialAgg: true, Exhaustive: true}
		res, err := e.Run(q, db)
		if err != nil {
			t.Logf("seed %d: %v (query %s)", seed, err, q)
			return false
		}
		got, err := res.Relation()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !relation.EqualAsSets(got, ref) {
			t.Logf("seed %d: exhaustive mismatch for %s", seed, q)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRunErrors(t *testing.T) {
	db := pizzeriaDB()
	e := New()
	if _, err := e.Run(&query.Query{Relations: []string{"Nope"}}, db); err == nil {
		t.Error("unknown relation should fail")
	}
	bad := &query.Query{
		Relations:  []string{"Orders"},
		Aggregates: []query.Aggregate{{Fn: query.Sum}},
	}
	if _, err := e.Run(bad, db); err == nil {
		t.Error("invalid query should fail")
	}
}

func TestRunOnViewRejectsEqualities(t *testing.T) {
	view, cat := pizzeriaView(t)
	q := &query.Query{
		Relations:  []string{"R"},
		Equalities: []query.Equality{{A: "pizza", B: "item"}},
	}
	if _, err := New().RunOnView(q, view, cat); err == nil {
		t.Error("RunOnView with equalities should fail")
	}
}

func TestOrderByAggregateMultiBranchFallback(t *testing.T) {
	// Group-by attributes in different branches (date and package-like):
	// ordering by the aggregate falls back to a flat sort and must still
	// be correct.
	view, cat := pizzeriaView(t)
	q := &query.Query{
		Relations:  []string{"R"},
		GroupBy:    []string{"date", "pizza"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "total"}},
		OrderBy:    []query.OrderItem{{Attr: "total", Desc: true}},
	}
	res, err := New().RunOnView(q, view, cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	// Reference on flattened view.
	flat, err := view.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	proj, err := flat.Project("customer", "date", "pizza", "item", "price")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rdb.New().Run(&query.Query{
		Relations:  []string{"F"},
		GroupBy:    []string{"date", "pizza"},
		Aggregates: q.Aggregates,
		OrderBy:    q.OrderBy,
	}, rdb.DB{"F": proj})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualAsSets(got, ref) {
		t.Fatalf("fallback mismatch:\n%v\nvs\n%v", got, ref)
	}
	// Descending order on the aggregate column.
	for i := 1; i < len(got.Tuples); i++ {
		if got.Tuples[i-1][2].Int() < got.Tuples[i][2].Int() {
			t.Fatal("not descending by total")
		}
	}
}

func TestCountHelper(t *testing.T) {
	view, cat := pizzeriaView(t)
	q := &query.Query{
		Relations:  []string{"R"},
		GroupBy:    []string{"pizza"},
		Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}},
	}
	res, err := New().RunOnView(q, view, cat)
	if err != nil {
		t.Fatal(err)
	}
	n, err := res.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("Count() = %d, want 3 groups", n)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	view, cat := pizzeriaView(t)
	q := &query.Query{Relations: []string{"R"}}
	res, err := New().RunOnView(q, view, cat)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	err = res.ForEach(func(relation.Tuple) bool {
		seen++
		return seen < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Errorf("early stop after %d rows, want 3", seen)
	}
}

func TestViewSharingIsCopyOnWrite(t *testing.T) {
	// Heavy restructuring queries must not corrupt the shared view.
	view, cat := pizzeriaView(t)
	before := view.Singletons()
	flatBefore, err := view.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*query.Query{
		{Relations: []string{"R"}, GroupBy: []string{"customer"},
			Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "r"}},
			OrderBy:    []query.OrderItem{{Attr: "r", Desc: true}}},
		{Relations: []string{"R"}, OrderBy: []query.OrderItem{{Attr: "customer"}, {Attr: "date"}}},
		{Relations: []string{"R"}, Filters: []query.Filter{{Attr: "price", Op: fops.GT, Const: iv(1)}},
			GroupBy:    []string{"pizza"},
			Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}}},
	} {
		res, err := New().RunOnView(q, view, cat)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.Count(); err != nil {
			t.Fatal(err)
		}
	}
	if view.Singletons() != before {
		t.Error("view size changed — view was mutated")
	}
	flatAfter, err := view.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualAsSets(flatBefore, flatAfter) {
		t.Error("view contents changed — view was mutated")
	}
	if err := view.Check(); err != nil {
		t.Errorf("view invariants broken: %v", err)
	}
}

// TestPathOrderCandidates pins the candidate path orders of one
// relation: a rotation per join attribute, the declared order, then the
// path led by the longest prefix of the requested order that lies in
// the relation, unless it repeats an earlier candidate.
func TestPathOrderCandidates(t *testing.T) {
	attrs := []string{"customer", "date", "package"}
	join := map[string]bool{"package": true}
	for _, tc := range []struct {
		lead []string
		want string
	}{
		{nil, "[[package customer date] [customer date package]]"},
		{[]string{"date", "customer", "package"}, "[[package customer date] [customer date package] [date customer package]]"},
		// The prefix stops at the first attribute of another relation.
		{[]string{"date", "item", "customer"}, "[[package customer date] [customer date package] [date customer package]]"},
		{[]string{"item", "date"}, "[[package customer date] [customer date package]]"},
		// Duplicates of the join rotation and of the declared order.
		{[]string{"package", "customer"}, "[[package customer date] [customer date package]]"},
		{[]string{"customer"}, "[[package customer date] [customer date package]]"},
		{[]string{"date", "date", "package"}, "[[package customer date] [customer date package] [date customer package]]"},
	} {
		if got := fmt.Sprint(pathCandidates(attrs, join, tc.lead)); got != tc.want {
			t.Errorf("lead %v: candidates %s, want %s", tc.lead, got, tc.want)
		}
	}
}
