package fdb_test

import (
	"strings"
	"testing"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
)

func pizzeria(t *testing.T) fdb.Database {
	t.Helper()
	orders, err := fdb.ReadCSV("Orders", strings.NewReader(
		"customer,date,pizza\n"+
			"Mario,Monday,Capricciosa\n"+
			"Mario,Tuesday,Margherita\n"+
			"Pietro,Friday,Hawaii\n"+
			"Lucia,Friday,Hawaii\n"+
			"Mario,Friday,Capricciosa\n"))
	if err != nil {
		t.Fatal(err)
	}
	pizzas, err := fdb.ReadCSV("Pizzas", strings.NewReader(
		"pizza2,item\n"+
			"Margherita,base\nCapricciosa,base\nCapricciosa,ham\nCapricciosa,mushrooms\n"+
			"Hawaii,base\nHawaii,ham\nHawaii,pineapple\n"))
	if err != nil {
		t.Fatal(err)
	}
	items, err := fdb.ReadCSV("Items", strings.NewReader(
		"item2,price\nbase,6\nham,1\nmushrooms,1\npineapple,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	return fdb.Database{"Orders": orders, "Pizzas": pizzas, "Items": items}
}

func TestEndToEndSQL(t *testing.T) {
	db := pizzeria(t)
	q, err := fdb.ParseSQL(`SELECT customer, SUM(price) AS revenue
		FROM Orders, Pizzas, Items
		WHERE pizza = pizza2 AND item = item2
		GROUP BY customer
		ORDER BY revenue DESC, customer`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fdb.NewEngine().Run(q, db)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 3 {
		t.Fatalf("rows = %d, want 3\n%v", rel.Cardinality(), rel)
	}
	if rel.Tuples[0][0].Str() != "Mario" || rel.Tuples[0][1].Int() != 22 {
		t.Errorf("top row = %v, want Mario,22", rel.Tuples[0])
	}
}

func TestMaterialiseAndReuseView(t *testing.T) {
	db := pizzeria(t)
	e := fdb.NewEngine()
	join, err := fdb.ParseSQL(`SELECT * FROM Orders, Pizzas, Items WHERE pizza = pizza2 AND item = item2`)
	if err != nil {
		t.Fatal(err)
	}
	view, err := fdb.MaterialiseView(e, join, db)
	if err != nil {
		t.Fatal(err)
	}
	q, err := fdb.ParseSQL(`SELECT pizza, COUNT(*) AS n, MIN(price) AS lo FROM R GROUP BY pizza ORDER BY pizza`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunOnView(q, view, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 3 {
		t.Fatalf("rows = %d, want 3", rel.Cardinality())
	}
	// Capricciosa: 2 orders × 3 items = 6 rows, min price 1.
	if rel.Tuples[0][1].Int() != 6 || rel.Tuples[0][2].Int() != 1 {
		t.Errorf("Capricciosa group = %v", rel.Tuples[0])
	}
}

// TestMaterialisedViewOwnsItsStore pins that MaterialiseView returns a
// view with its own slabs, not an alias of the pooled store its query
// ran in: after a few hundred unrelated queries have run and closed —
// recycling every pooled store many times over — the view must still
// represent the join, as the flat baseline computes it.
func TestMaterialisedViewOwnsItsStore(t *testing.T) {
	db := pizzeria(t)
	e := fdb.NewEngine()
	join, err := fdb.ParseSQL(`SELECT * FROM Orders, Pizzas, Items WHERE pizza = pizza2 AND item = item2`)
	if err != nil {
		t.Fatal(err)
	}
	before := fdb.ParallelStats().StoreReturns
	view, err := fdb.MaterialiseView(e, join, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := fdb.ParallelStats().StoreReturns - before; got != 1 {
		t.Fatalf("MaterialiseView returned %d pooled stores, want exactly 1", got)
	}
	other, err := fdb.ParseSQL(`SELECT item, COUNT(*) AS n FROM Pizzas GROUP BY item`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		res, err := e.Run(other, db)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.Count(); err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	want, err := rdb.New().Run(join, rdb.DB(db))
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Check(); err != nil {
		t.Fatalf("view invariants after pool recycling: %v", err)
	}
	got, err := view.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != len(want.Tuples) || !relation.EqualAsSets(got, want) {
		t.Fatalf("view flattens to %d tuples after pool recycling, the join has %d (or contents differ)",
			len(got.Tuples), len(want.Tuples))
	}
}

func TestFactoriseAPI(t *testing.T) {
	db := pizzeria(t)
	tree := fdb.NewFTree()
	tree.NewRelationPath("customer", "date", "pizza")
	fr, err := fdb.Factorise(db["Orders"], tree)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Singletons() == 0 {
		t.Error("factorisation should have singletons")
	}
	flat, err := fr.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if flat.Cardinality() != 5 {
		t.Errorf("flatten = %d tuples, want 5", flat.Cardinality())
	}
}

func TestValueConstructors(t *testing.T) {
	if fdb.NewInt(3).Int() != 3 || fdb.NewFloat(1.5).Float() != 1.5 ||
		fdb.NewString("x").Str() != "x" || !fdb.NewBool(true).Bool() {
		t.Error("value constructors broken")
	}
}
