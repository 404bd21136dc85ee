package engine

import (
	"strings"
	"testing"

	"github.com/factordb/fdb/internal/query"
)

func TestExplainOutput(t *testing.T) {
	view, cat := pizzeriaView(t)
	q := &query.Query{
		Relations:  []string{"R"},
		GroupBy:    []string{"customer"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "revenue"}},
	}
	res, err := New().RunOnView(q, view, cat)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Explain()
	for _, frag := range []string{"f-plan:", "γ", "cost:", "result f-tree:", "customer", "singletons"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, out)
		}
	}
}

func TestExplainNoOps(t *testing.T) {
	// A query the view supports directly has an empty plan.
	view, cat := pizzeriaView(t)
	q := &query.Query{Relations: []string{"R"}}
	res, err := New().RunOnView(q, view, cat)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Explain()
	if !strings.Contains(out, "no operators — the input factorisation already supports the query") {
		t.Errorf("Explain should report the empty plan:\n%s", out)
	}
	if strings.Contains(out, "path orders:") {
		t.Errorf("a view query has no path orders to report:\n%s", out)
	}
}

func TestExplainPathOrders(t *testing.T) {
	db := pizzeriaDB()
	// Ordering a base relation by a rotation of its attributes picks the
	// path in that order, so the plan is empty.
	q := &query.Query{
		Relations: []string{"Orders"},
		OrderBy:   []query.OrderItem{{Attr: "date"}, {Attr: "customer"}, {Attr: "pizza"}},
	}
	res, err := New().Run(q, db)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	out := res.Explain()
	for _, frag := range []string{
		"path orders: Orders(date, customer, pizza)\n",
		"f-plan: (no operators — the input factorisation already supports the query)",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, out)
		}
	}

	q = &query.Query{
		Relations:  []string{"Orders", "Pizzas", "Items"},
		Equalities: pizzeriaEqualities(),
		GroupBy:    []string{"customer"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "revenue"}},
	}
	p, err := New().Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	res, err = p.Exec(db)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	want := make([]string, len(p.Orders))
	for i, name := range q.Relations {
		want[i] = name + "(" + strings.Join(p.Orders[i], ", ") + ")"
	}
	if frag := "path orders: " + strings.Join(want, ", ") + "\n"; !strings.Contains(res.Explain(), frag) {
		t.Errorf("Explain missing %q:\n%s", frag, res.Explain())
	}
}
