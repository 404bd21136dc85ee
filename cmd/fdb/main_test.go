package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/factordb/fdb"
)

// TestSaveLoadViewAnswersLikeOriginal drives the shell through
// .materialize, .save and .load, then checks that a query on the loaded
// view answers exactly as the same query on the materialised one.
func TestSaveLoadViewAnswersLikeOriginal(t *testing.T) {
	dir := t.TempDir()
	csvs := map[string]string{
		"Orders.csv": "customer,date,pizza\nMario,Monday,Capricciosa\nMario,Tuesday,Margherita\nPietro,Friday,Hawaii\n",
		"Pizzas.csv": "pizza2,item\nMargherita,base\nCapricciosa,base\nCapricciosa,ham\nHawaii,base\nHawaii,pineapple\n",
		"Items.csv":  "item2,price\nbase,6\nham,1\npineapple,2\n",
	}
	for name, body := range csvs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := loadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sh := &shell{db: db, views: map[string]*fdb.Factorisation{}, engine: fdb.NewEngine(), maxRows: 20}
	file := filepath.Join(dir, "v.fdb")
	for _, line := range []string{
		".materialize V SELECT * FROM Orders, Pizzas, Items WHERE pizza = pizza2 AND item = item2",
		".save V " + file,
		".load W " + file,
		"SELECT customer, SUM(price) AS revenue FROM W GROUP BY customer ORDER BY revenue DESC",
	} {
		if err := sh.exec(line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	answer := func(view string) *fdb.Relation {
		t.Helper()
		res, _, err := sh.run("SELECT customer, SUM(price) AS revenue FROM " + view + " GROUP BY customer ORDER BY revenue DESC")
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
	got, want := answer("W"), answer("V")
	if len(want.Tuples) != 2 || len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("loaded view answers %v, materialised view %v", got, want)
	}
	for i := range want.Tuples {
		for j := range want.Tuples[i] {
			if fdb.GoValue(got.Tuples[i][j]) != fdb.GoValue(want.Tuples[i][j]) {
				t.Fatalf("row %d: loaded view %v, materialised view %v", i, got.Tuples[i], want.Tuples[i])
			}
		}
	}
}
