package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

func init() { fops.Paranoid = true }

func iv(i int64) values.Value  { return values.NewInt(i) }
func sv(s string) values.Value { return values.NewString(s) }

func pizzeriaDB() DB {
	return DB{
		"Orders": relation.MustNew("Orders", []string{"customer", "date", "pizza"}, []relation.Tuple{
			{sv("Mario"), sv("Monday"), sv("Capricciosa")},
			{sv("Mario"), sv("Tuesday"), sv("Margherita")},
			{sv("Pietro"), sv("Friday"), sv("Hawaii")},
			{sv("Lucia"), sv("Friday"), sv("Hawaii")},
			{sv("Mario"), sv("Friday"), sv("Capricciosa")},
		}),
		"Pizzas": relation.MustNew("Pizzas", []string{"pizza2", "item"}, []relation.Tuple{
			{sv("Margherita"), sv("base")},
			{sv("Capricciosa"), sv("base")},
			{sv("Capricciosa"), sv("ham")},
			{sv("Capricciosa"), sv("mushrooms")},
			{sv("Hawaii"), sv("base")},
			{sv("Hawaii"), sv("ham")},
			{sv("Hawaii"), sv("pineapple")},
		}),
		"Items": relation.MustNew("Items", []string{"item2", "price"}, []relation.Tuple{
			{sv("base"), iv(6)},
			{sv("ham"), iv(1)},
			{sv("mushrooms"), iv(1)},
			{sv("pineapple"), iv(2)},
		}),
	}
}

func pizzeriaEqualities() []query.Equality {
	return []query.Equality{{A: "pizza", B: "pizza2"}, {A: "item", B: "item2"}}
}

// pizzeriaView materialises R = Orders ⋈ Pizzas ⋈ Items as a factorised
// view over T1 by running the identity SPJ query through the engine.
func pizzeriaView(t *testing.T) (*fops.ARel, []ftree.CatalogRelation) {
	t.Helper()
	db := pizzeriaDB()
	q := &query.Query{
		Relations:  []string{"Orders", "Pizzas", "Items"},
		Equalities: pizzeriaEqualities(),
	}
	res, err := New().Run(q, db)
	if err != nil {
		t.Fatal(err)
	}
	var cat []ftree.CatalogRelation
	for name, rel := range db {
		cat = append(cat, ftree.CatalogRelation{Name: name, Attrs: rel.Attrs, Size: rel.Cardinality()})
	}
	defer res.Close()
	view, _ := res.ARel.Clone()
	return view, cat
}

func TestRunRevenuePerCustomer(t *testing.T) {
	q := &query.Query{
		Relations:  []string{"Orders", "Pizzas", "Items"},
		Equalities: pizzeriaEqualities(),
		GroupBy:    []string{"customer"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "revenue"}},
		OrderBy:    []query.OrderItem{{Attr: "customer"}},
	}
	res, err := New().Run(q, pizzeriaDB())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	want := relation.MustNew("want", []string{"customer", "revenue"}, []relation.Tuple{
		{sv("Lucia"), iv(9)},
		{sv("Mario"), iv(22)},
		{sv("Pietro"), iv(9)},
	})
	if !relation.EqualAsSets(got, want) {
		t.Fatalf("revenue mismatch:\n%v\nwant\n%v", got, want)
	}
	if got.Tuples[0][0].Str() != "Lucia" || got.Tuples[2][0].Str() != "Pietro" {
		t.Errorf("wrong order: %v", got)
	}
}

func TestRunOnViewQueries(t *testing.T) {
	view, cat := pizzeriaView(t)
	e := New()

	// Q-S: price of each ordered pizza.
	qs := &query.Query{
		Relations:  []string{"R"},
		GroupBy:    []string{"customer", "date", "pizza"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "total"}},
	}
	res, err := e.RunOnView(qs, view, cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 5 {
		t.Fatalf("Q-S rows = %d, want 5\n%v", got.Cardinality(), got)
	}

	// Q-P: revenue per customer.
	qp := &query.Query{
		Relations:  []string{"R"},
		GroupBy:    []string{"customer"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "revenue"}},
	}
	res, err = e.RunOnView(qp, view, cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err = res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	want := relation.MustNew("want", []string{"customer", "revenue"}, []relation.Tuple{
		{sv("Lucia"), iv(9)}, {sv("Mario"), iv(22)}, {sv("Pietro"), iv(9)},
	})
	if !relation.EqualAsSets(got, want) {
		t.Fatalf("Q-P mismatch:\n%v", got)
	}

	// The view itself must be untouched and reusable.
	res2, err := e.RunOnView(qp, view, cat)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := res2.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualAsSets(got2, want) {
		t.Fatal("second run on view differs — view was mutated")
	}
}

func TestOrderByAggregate(t *testing.T) {
	view, cat := pizzeriaView(t)
	q := &query.Query{
		Relations:  []string{"R"},
		GroupBy:    []string{"customer"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "revenue"}},
		OrderBy:    []query.OrderItem{{Attr: "revenue", Desc: true}, {Attr: "customer"}},
	}
	res, err := New().RunOnView(q, view, cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 3 {
		t.Fatalf("rows = %d", got.Cardinality())
	}
	if got.Tuples[0][0].Str() != "Mario" || got.Tuples[0][1].Int() != 22 {
		t.Errorf("first row should be Mario/22: %v", got.Tuples[0])
	}
	// revenue 9 ties: Lucia before Pietro (secondary key customer asc).
	if got.Tuples[1][0].Str() != "Lucia" || got.Tuples[2][0].Str() != "Pietro" {
		t.Errorf("tie order wrong: %v", got.Tuples)
	}
}

func TestOrderByAvgOnly(t *testing.T) {
	view, cat := pizzeriaView(t)
	q := &query.Query{
		Relations:  []string{"R"},
		GroupBy:    []string{"pizza"},
		Aggregates: []query.Aggregate{{Fn: query.Avg, Arg: "price", As: "ap"}},
		OrderBy:    []query.OrderItem{{Attr: "ap"}},
	}
	res, err := New().RunOnView(q, view, cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	// Capricciosa 8/3 ≈ 2.67 < Hawaii 3 < Margherita 6.
	if got.Tuples[0][0].Str() != "Capricciosa" || got.Tuples[2][0].Str() != "Margherita" {
		t.Errorf("avg order wrong: %v", got.Tuples)
	}
}

func TestHavingAndLimit(t *testing.T) {
	view, cat := pizzeriaView(t)
	q := &query.Query{
		Relations:  []string{"R"},
		GroupBy:    []string{"customer"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "revenue"}},
		Having:     []query.Filter{{Attr: "revenue", Op: fops.LT, Const: iv(10)}},
		OrderBy:    []query.OrderItem{{Attr: "customer"}},
		Limit:      1,
	}
	res, err := New().RunOnView(q, view, cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 1 || got.Tuples[0][0].Str() != "Lucia" {
		t.Errorf("having+limit wrong: %v", got)
	}
}

func TestSPJOrderOnView(t *testing.T) {
	view, cat := pizzeriaView(t)
	// Order by (customer, pizza, item) requires pushing customer up
	// (Example 2).
	q := &query.Query{
		Relations: []string{"R"},
		OrderBy: []query.OrderItem{
			{Attr: "customer"}, {Attr: "pizza"}, {Attr: "item"},
		},
	}
	res, err := New().RunOnView(q, view, cat)
	if err != nil {
		t.Fatal(err)
	}
	var rows []relation.Tuple
	err = res.ForEach(func(tp relation.Tuple) bool {
		rows = append(rows, tp.Clone())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows = %d, want 13", len(rows))
	}
	schema := res.Query.OutputAttrs()
	if len(schema) != 0 {
		t.Fatalf("identity SPJ output attrs should be empty (all): %v", schema)
	}
	// Verify ordering on the three keys via the result's flat schema.
	full, err := res.Relation()
	if err == nil && full != nil {
		t.Log("materialised via Relation() not used for identity query (schema empty)")
	}
	// Check sortedness by locating columns in the enumeration schema.
	sch := frep.FlatSchema(res.Tree())
	ci := index(sch, "customer")
	pi := index(sch, "pizza")
	ii := index(sch, "item")
	if ci < 0 || pi < 0 || ii < 0 {
		t.Fatalf("schema %v missing keys", sch)
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		c := values.Compare(a[ci], b[ci])
		if c > 0 {
			t.Fatalf("customer out of order at %d", i)
		}
		if c == 0 {
			cp := values.Compare(a[pi], b[pi])
			if cp > 0 {
				t.Fatalf("pizza out of order at %d", i)
			}
			if cp == 0 && values.Compare(a[ii], b[ii]) > 0 {
				t.Fatalf("item out of order at %d", i)
			}
		}
	}
}

func index(ss []string, s string) int {
	for i, x := range ss {
		if x == s {
			return i
		}
	}
	return -1
}

func TestSPJProjection(t *testing.T) {
	q := &query.Query{
		Relations:  []string{"Orders"},
		Projection: []string{"pizza", "customer"},
		OrderBy:    []query.OrderItem{{Attr: "pizza"}, {Attr: "customer"}},
	}
	res, err := New().Run(q, pizzeriaDB())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 4 {
		t.Fatalf("projection rows = %d, want 4:\n%v", got.Cardinality(), got)
	}
	if got.Attrs[0] != "pizza" || got.Attrs[1] != "customer" {
		t.Errorf("projection schema = %v", got.Attrs)
	}
}

func TestEmptyInputs(t *testing.T) {
	db := DB{"E": relation.MustNew("E", []string{"x", "y"}, nil)}
	// Global aggregate over empty: one row, count 0, sum Null.
	q := &query.Query{
		Relations:  []string{"E"},
		Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}, {Fn: query.Sum, Arg: "y", As: "s"}},
	}
	res, err := New().Run(q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 1 || got.Tuples[0][0].Int() != 0 || !got.Tuples[0][1].IsNull() {
		t.Errorf("global aggregate over empty = %v", got)
	}
	// Grouped aggregate over empty: no rows.
	q2 := &query.Query{
		Relations:  []string{"E"},
		GroupBy:    []string{"x"},
		Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}},
	}
	res, err = New().Run(q2, db)
	if err != nil {
		t.Fatal(err)
	}
	got, err = res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 0 {
		t.Errorf("grouped aggregate over empty = %v", got)
	}
}

func TestDuplicateAttrRejected(t *testing.T) {
	db := DB{
		"A": relation.MustNew("A", []string{"x"}, nil),
		"B": relation.MustNew("B", []string{"x"}, nil),
	}
	q := &query.Query{Relations: []string{"A", "B"}}
	if _, err := New().Run(q, db); err == nil {
		t.Error("duplicate attribute across relations should be rejected")
	}
}

// randomChainDB builds R(a,b), S(b2,c), T(c2,d) with random data.
func randomChainDB(rng *rand.Rand) DB {
	mk := func(name string, attrs []string, n, dom int) *relation.Relation {
		ts := make([]relation.Tuple, n)
		for i := range ts {
			tp := make(relation.Tuple, len(attrs))
			for j := range tp {
				tp[j] = iv(int64(rng.Intn(dom)))
			}
			ts[i] = tp
		}
		return relation.MustNew(name, attrs, ts).Dedup()
	}
	return DB{
		"R": mk("R", []string{"a", "b"}, 1+rng.Intn(20), 4),
		"S": mk("S", []string{"b2", "c"}, 1+rng.Intn(20), 4),
		"T": mk("T", []string{"c2", "d"}, 1+rng.Intn(20), 4),
	}
}

func randomAggQuery(rng *rand.Rand) *query.Query {
	q := &query.Query{
		Relations:  []string{"R", "S", "T"},
		Equalities: []query.Equality{{A: "b", B: "b2"}, {A: "c", B: "c2"}},
	}
	groupPool := []string{"a", "b", "c"}
	for _, g := range groupPool {
		if rng.Intn(2) == 0 {
			q.GroupBy = append(q.GroupBy, g)
		}
	}
	aggPool := []query.Aggregate{
		{Fn: query.Count, As: "n"},
		{Fn: query.Sum, Arg: "d", As: "sd"},
		{Fn: query.Min, Arg: "d", As: "lod"},
		{Fn: query.Max, Arg: "d", As: "hid"},
		{Fn: query.Avg, Arg: "d", As: "md"},
		{Fn: query.Sum, Arg: "a", As: "sa"},
		{Fn: query.Min, Arg: "c", As: "loc"},
	}
	rng.Shuffle(len(aggPool), func(i, j int) { aggPool[i], aggPool[j] = aggPool[j], aggPool[i] })
	n := 1 + rng.Intn(3)
	for _, a := range aggPool[:n] {
		// Aggregating a group-by attribute is out of scope for the
		// on-the-fly path; skip those.
		ok := true
		for _, g := range q.GroupBy {
			if a.Arg == g {
				ok = false
			}
		}
		if ok {
			q.Aggregates = append(q.Aggregates, a)
		}
	}
	if len(q.Aggregates) == 0 {
		q.Aggregates = []query.Aggregate{{Fn: query.Count, As: "n"}}
	}
	// Half the queries order by an aggregate output: the f-plan's
	// aggregate-order steps where plan.AggregateOrder holds, the flat
	// sort elsewhere.
	if rng.Intn(2) == 0 {
		a := q.Aggregates[rng.Intn(len(q.Aggregates))]
		q.OrderBy = append(q.OrderBy, query.OrderItem{Attr: a.OutName(), Desc: rng.Intn(2) == 0})
	}
	if rng.Intn(2) == 0 && len(q.GroupBy) > 0 {
		q.OrderBy = append(q.OrderBy, query.OrderItem{Attr: q.GroupBy[0], Desc: rng.Intn(2) == 0})
	}
	if rng.Intn(3) == 0 {
		q.Filters = append(q.Filters, query.Filter{Attr: "d", Op: fops.LE, Const: iv(int64(rng.Intn(4)))})
	}
	return q
}

// The flagship differential test: FDB (greedy, eager and lazy) agrees
// with RDB on random join-aggregate queries.
func TestDifferentialAgainstRDBProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomChainDB(rng)
		q := randomAggQuery(rng)
		ref, err := rdb.New().Run(q, rdb.DB(db))
		if err != nil {
			t.Logf("seed %d: rdb error: %v", seed, err)
			return false
		}
		for _, eng := range []*Engine{
			{PartialAgg: true},
			{PartialAgg: false},
		} {
			res, err := eng.Run(q, db)
			if err != nil {
				t.Logf("seed %d: engine error: %v (query %s)", seed, err, q)
				return false
			}
			got, err := res.Relation()
			if err != nil {
				t.Logf("seed %d: enumerate error: %v (query %s)", seed, err, q)
				return false
			}
			if err := oracleErr(q, got, rdb.DB(db)); err != nil {
				t.Logf("seed %d: %v for %s\nFDB(partial=%v):\n%v\nRDB:\n%v",
					seed, err, q, eng.PartialAgg, got, ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Differential test for SPJ ordering: FDB enumeration order matches RDB's
// sorted output exactly (including full-tuple tie-breaking oracle
// absence: we compare only the order keys).
func TestDifferentialOrderProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomChainDB(rng)
		q := &query.Query{
			Relations:  []string{"R", "S", "T"},
			Equalities: []query.Equality{{A: "b", B: "b2"}, {A: "c", B: "c2"}},
			OrderBy: []query.OrderItem{
				{Attr: "d", Desc: rng.Intn(2) == 0},
				{Attr: "a"},
			},
		}
		ref, err := rdb.New().Run(q, rdb.DB(db))
		if err != nil {
			return false
		}
		res, err := New().Run(q, db)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		got, err := res.ARel.Flatten()
		if err != nil {
			return false
		}
		if !relation.EqualAsSets(got, ref.Dedup()) {
			t.Logf("seed %d: set mismatch", seed)
			return false
		}
		// Check enumeration order on the keys.
		var rows []relation.Tuple
		if err := res.ForEach(func(tp relation.Tuple) bool {
			rows = append(rows, tp.Clone())
			return true
		}); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		sch := frep.FlatSchema(res.Tree())
		di := index(sch, "d")
		ai := index(sch, "a")
		for i := 1; i < len(rows); i++ {
			c := values.Compare(rows[i-1][di], rows[i][di])
			if q.OrderBy[0].Desc {
				c = -c
			}
			if c > 0 {
				t.Logf("seed %d: key 1 out of order", seed)
				return false
			}
			if c == 0 && values.Compare(rows[i-1][ai], rows[i][ai]) > 0 {
				t.Logf("seed %d: key 2 out of order", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
