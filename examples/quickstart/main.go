// Quickstart walks through the paper's running example (Section 1): the
// pizzeria database, its factorisation over the f-tree T1, and the
// aggregate queries S (price of each ordered pizza) and P (revenue per
// customer), evaluated with partial aggregation and restructuring.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/frep"
)

func main() {
	log.SetFlags(0)

	orders, err := fdb.ReadCSV("Orders", strings.NewReader(
		`customer,date,pizza
Mario,Monday,Capricciosa
Mario,Tuesday,Margherita
Pietro,Friday,Hawaii
Lucia,Friday,Hawaii
Mario,Friday,Capricciosa
`))
	check(err)
	pizzas, err := fdb.ReadCSV("Pizzas", strings.NewReader(
		`pizza2,item
Margherita,base
Capricciosa,base
Capricciosa,ham
Capricciosa,mushrooms
Hawaii,base
Hawaii,ham
Hawaii,pineapple
`))
	check(err)
	items, err := fdb.ReadCSV("Items", strings.NewReader(
		`item2,price
base,6
ham,1
mushrooms,1
pineapple,2
`))
	check(err)
	db := fdb.Database{"Orders": orders, "Pizzas": pizzas, "Items": items}
	e := fdb.NewEngine()

	// Materialise R = Orders ⋈ Pizzas ⋈ Items as a factorised view.
	join, err := fdb.ParseSQL(`SELECT * FROM Orders, Pizzas, Items
		WHERE pizza = pizza2 AND item = item2`)
	check(err)
	view, err := fdb.MaterialiseView(e, join, db)
	check(err)

	fmt.Println("f-tree chosen by the optimiser for the factorised view:")
	fmt.Println(view.Tree)
	fmt.Printf("factorisation (%d singletons for %d tuples):\n  %s\n\n",
		view.Singletons(), mustCount(view), frep.Format(view.Tree, view.Store, view.Roots))

	// Query S: the price of each ordered pizza.
	qs, err := fdb.ParseSQL(`SELECT customer, date, pizza, SUM(price) AS total
		FROM R GROUP BY customer, date, pizza ORDER BY pizza, date`)
	check(err)
	resS, err := e.RunOnView(qs, view, nil)
	check(err)
	relS, err := resS.Relation()
	check(err)
	fmt.Println("Query S = ϖ_{customer,date,pizza; sum(price)}(R):")
	fmt.Print(relS)

	// Query P: revenue per customer (Example 1's partial-aggregation
	// pipeline: γ_sum(item,price), restructure customer up, γ_count(date),
	// final γ).
	qp, err := fdb.ParseSQL(`SELECT customer, SUM(price) AS revenue
		FROM R GROUP BY customer ORDER BY customer`)
	check(err)
	resP, err := e.RunOnView(qp, view, nil)
	check(err)
	fmt.Printf("\nQuery P = ϖ_{customer; sum(price)}(R), f-plan: %s\n", resP.Plan)
	relP, err := resP.Relation()
	check(err)
	fmt.Print(relP)
	fmt.Println("\n(the paper's result: Lucia 9, Mario 22, Pietro 9)")

	// Ordering: Example 2 — (customer, pizza, item) needs customer pushed
	// up, but the pizza/item/price branch is reused as-is.
	qo, err := fdb.ParseSQL(`SELECT * FROM R ORDER BY customer, pizza, item LIMIT 5`)
	check(err)
	resO, err := e.RunOnView(qo, view, nil)
	check(err)
	fmt.Println("\nfirst 5 tuples ordered by (customer, pizza, item):")
	err = resO.ForEach(func(t fdb.Tuple) bool {
		fmt.Printf("  %v\n", t)
		return true
	})
	check(err)
}

func mustCount(view *fdb.Factorisation) int {
	flat, err := view.Flatten()
	if err != nil {
		log.Fatal(err)
	}
	return flat.Cardinality()
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
