package plan

import (
	"slices"
	"strings"
	"testing"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

func init() { fops.Paranoid = true }

// pizzeriaForest builds the initial forest for Orders(customer,date,pizza)
// × Pizzas(pizza2,item) × Items(item2,price) with relation paths, plus the
// catalogue.
func pizzeriaForest() (*ftree.Forest, []ftree.CatalogRelation) {
	f := ftree.New()
	f.NewRelationPath("customer", "date", "pizza")
	f.NewRelationPath("pizza2", "item")
	f.NewRelationPath("item2", "price")
	cat := []ftree.CatalogRelation{
		{Name: "Orders", Attrs: []string{"customer", "date", "pizza"}, Size: 5},
		{Name: "Pizzas", Attrs: []string{"pizza2", "item"}, Size: 7},
		{Name: "Items", Attrs: []string{"item2", "price"}, Size: 4},
	}
	return f, cat
}

func revenueQuery() *query.Query {
	return &query.Query{
		Relations:  []string{"Orders", "Pizzas", "Items"},
		Equalities: []query.Equality{{A: "pizza", B: "pizza2"}, {A: "item", B: "item2"}},
		GroupBy:    []string{"customer"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "revenue"}},
	}
}

// TestRequiredFields: the planner's required fields are the query's
// aggregates lowered onto storable fields, AVG expanded and duplicates
// shared.
func TestRequiredFields(t *testing.T) {
	low, err := query.Lower([]query.Aggregate{
		{Fn: query.Avg, Arg: "x", As: "m"},
		{Fn: query.Count, As: "n"},
		{Fn: query.Sum, Arg: "x", As: "s"},
		{Fn: query.Min, Arg: "y", As: "lo"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// avg(x) → sum_x + count; count dedups; sum_x dedups; min_y.
	want := []ftree.AggField{{Fn: ftree.Sum, Arg: "x"}, ftree.CountField(), {Fn: ftree.Min, Arg: "y"}}
	if !slices.Equal(low.Fields(), want) {
		t.Fatalf("fields = %v, want %v", low.Fields(), want)
	}
}

func TestPartialFields(t *testing.T) {
	req := []ftree.AggField{
		{Fn: ftree.Sum, Arg: "price"},
		{Fn: ftree.Min, Arg: "price"},
		{Fn: ftree.Count},
	}
	with := PartialFields(req, map[string]bool{"price": true})
	if len(with) != 3 {
		t.Errorf("fields with price = %v", with)
	}
	without := PartialFields(req, map[string]bool{"date": true})
	// sum→count, min→dropped, count→count, deduplicated.
	if len(without) != 1 || without[0].Fn != ftree.Count {
		t.Errorf("fields without price = %v", without)
	}
	minOnly := PartialFields([]ftree.AggField{{Fn: ftree.Min, Arg: "p"}}, map[string]bool{"x": true})
	if len(minOnly) != 1 || minOnly[0].Fn != ftree.Count {
		t.Errorf("empty mapping should default to count: %v", minOnly)
	}
}

func TestGreedyPlanRevenue(t *testing.T) {
	f, cat := pizzeriaForest()
	p := &Planner{Catalog: cat, PartialAgg: true}
	pl, err := p.Plan(f, revenueQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Ops) == 0 {
		t.Fatal("empty plan")
	}
	// The plan must contain both selections and at least one γ.
	s := pl.String()
	for _, frag := range []string{"pizza", "item", "γ"} {
		if !strings.Contains(s, frag) {
			t.Errorf("plan missing %q: %s", frag, s)
		}
	}
	// Simulate: final tree must have customer as the only atomic attr
	// above aggregate leaves.
	final, cost, err := pl.Simulate(f, cat)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Error("cost should be positive")
	}
	if err := final.Validate(); err != nil {
		t.Fatalf("final tree invalid: %v\n%s", err, final)
	}
	for _, n := range final.Nodes() {
		if n.IsAgg() {
			continue
		}
		hasCustomer := false
		for _, a := range n.Attrs {
			if a == "customer" {
				hasCustomer = true
			}
		}
		if !hasCustomer {
			t.Errorf("atomic node %s not aggregated:\n%s", n.Label(), final)
		}
	}
	if final.GroupingViolation([]string{"customer"}) != nil {
		t.Errorf("grouping unsupported in final tree:\n%s", final)
	}
}

func TestGreedyPlanExecutes(t *testing.T) {
	// Execute the revenue plan against real data and check the result.
	f, cat := pizzeriaForest()
	orders := relation.MustNew("Orders", []string{"customer", "date", "pizza"}, []relation.Tuple{
		{values.NewString("Mario"), values.NewString("Monday"), values.NewString("Capricciosa")},
		{values.NewString("Mario"), values.NewString("Tuesday"), values.NewString("Margherita")},
		{values.NewString("Pietro"), values.NewString("Friday"), values.NewString("Hawaii")},
		{values.NewString("Lucia"), values.NewString("Friday"), values.NewString("Hawaii")},
		{values.NewString("Mario"), values.NewString("Friday"), values.NewString("Capricciosa")},
	})
	pizzas := relation.MustNew("Pizzas", []string{"pizza2", "item"}, []relation.Tuple{
		{values.NewString("Margherita"), values.NewString("base")},
		{values.NewString("Capricciosa"), values.NewString("base")},
		{values.NewString("Capricciosa"), values.NewString("ham")},
		{values.NewString("Capricciosa"), values.NewString("mushrooms")},
		{values.NewString("Hawaii"), values.NewString("base")},
		{values.NewString("Hawaii"), values.NewString("ham")},
		{values.NewString("Hawaii"), values.NewString("pineapple")},
	})
	items := relation.MustNew("Items", []string{"item2", "price"}, []relation.Tuple{
		{values.NewString("base"), values.NewInt(6)},
		{values.NewString("ham"), values.NewInt(1)},
		{values.NewString("mushrooms"), values.NewInt(1)},
		{values.NewString("pineapple"), values.NewInt(2)},
	})

	fr := buildForest(t, f, orders, pizzas, items)
	p := &Planner{Catalog: cat, PartialAgg: true}
	pl, err := p.Plan(f, revenueQuery())
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Execute(fr); err != nil {
		t.Fatal(err)
	}
	if err := fr.Check(); err != nil {
		t.Fatal(err)
	}
	flat, err := fr.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	// The final factorisation has customer plus aggregate leaves; the sum
	// column must hold 9/22/9.
	sumCol := -1
	for i, a := range flat.Attrs {
		if strings.HasPrefix(a, "sum_price") {
			sumCol = i
		}
	}
	if sumCol < 0 {
		t.Fatalf("no sum column in %v", flat.Attrs)
	}
	got := map[string]int64{}
	custCol := flat.ColIndex("customer")
	for _, tp := range flat.Tuples {
		got[tp[custCol].Str()] = tp[sumCol].Int()
	}
	if got["Mario"] != 22 || got["Lucia"] != 9 || got["Pietro"] != 9 {
		t.Errorf("revenues = %v", got)
	}
}

// buildForest assembles the product relation matching pizzeriaForest.
func buildForest(t *testing.T, f *ftree.Forest, rels ...*relation.Relation) *fops.ARel {
	t.Helper()
	fr := &fops.ARel{Tree: f, Store: frep.NewStore()}
	for _, rel := range rels {
		sub := ftree.New()
		sub.NewRelationPath(rel.Attrs...)
		x, err := fops.FromRelationStoreUnchecked(fr.Store, rel, sub)
		if err != nil {
			t.Fatal(err)
		}
		fr.Roots = append(fr.Roots, x.Roots...)
	}
	return fr
}

func TestLazyModeAlsoConverges(t *testing.T) {
	f, cat := pizzeriaForest()
	p := &Planner{Catalog: cat, PartialAgg: false}
	pl, err := p.Plan(f, revenueQuery())
	if err != nil {
		t.Fatal(err)
	}
	final, _, err := pl.Simulate(f, cat)
	if err != nil {
		t.Fatal(err)
	}
	if final.GroupingViolation([]string{"customer"}) != nil {
		t.Errorf("lazy plan final tree unsupported:\n%s", final)
	}
}

func TestEagerAggregatesBeforeRestructuring(t *testing.T) {
	// In eager mode every γ precedes the group-by swaps; in lazy mode
	// the aggregates come last. (The wall-clock benefit is measured by
	// the ablation benchmarks; the summed size-bound metric can rank a
	// longer eager plan higher on tiny catalogues.)
	f, cat := pizzeriaForest()
	eag, err := (&Planner{Catalog: cat, PartialAgg: true}).Plan(f, revenueQuery())
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := (&Planner{Catalog: cat, PartialAgg: false}).Plan(f, revenueQuery())
	if err != nil {
		t.Fatal(err)
	}
	lastGammaLazy, lastSwapLazy := -1, -1
	for i, op := range lazy.Ops {
		switch op.(type) {
		case GammaOp:
			lastGammaLazy = i
		case SwapOp:
			lastSwapLazy = i
		}
	}
	if lastGammaLazy >= 0 && lastSwapLazy > lastGammaLazy {
		t.Errorf("lazy plan should aggregate after restructuring: %s", lazy)
	}
	if eag.Cost <= 0 || lazy.Cost <= 0 {
		t.Error("costs should be positive")
	}
}

func TestExhaustiveFindsPlanAndBeatsOrMatchesGreedy(t *testing.T) {
	f, cat := pizzeriaForest()
	q := revenueQuery()
	greedy, err := (&Planner{Catalog: cat, PartialAgg: true}).Plan(f, q)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := (&Planner{Catalog: cat, PartialAgg: true, Exhaustive: true, MaxStates: 20000}).Plan(f, q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Cost > greedy.Cost+1e-6 {
		t.Errorf("exhaustive cost %v should be ≤ greedy cost %v", ex.Cost, greedy.Cost)
	}
	// The exhaustive plan must also reach a valid goal tree.
	final, _, err := ex.Simulate(f, cat)
	if err != nil {
		t.Fatal(err)
	}
	if final.GroupingViolation([]string{"customer"}) != nil {
		t.Errorf("exhaustive final tree unsupported:\n%s", final)
	}
}

func TestSPJPlanProjectionAndOrder(t *testing.T) {
	f := ftree.New()
	f.NewRelationPath("a", "b", "c")
	cat := []ftree.CatalogRelation{{Name: "R", Attrs: []string{"a", "b", "c"}, Size: 10}}
	q := &query.Query{
		Relations:  []string{"R"},
		Projection: []string{"c", "a"},
		OrderBy:    []query.OrderItem{{Attr: "c"}, {Attr: "a"}},
	}
	pl, err := (&Planner{Catalog: cat}).Plan(f, q)
	if err != nil {
		t.Fatal(err)
	}
	final, _, err := pl.Simulate(f, cat)
	if err != nil {
		t.Fatal(err)
	}
	if final.ResolveAttr("b") != nil {
		t.Errorf("b should be projected away:\n%s", final)
	}
	if !final.SupportsOrder([]string{"c", "a"}) {
		t.Errorf("order (c,a) unsupported:\n%s", final)
	}
}

func TestOrderRestructureQ13Shape(t *testing.T) {
	// Q13: input sorted by (date, customer, package); re-sort by
	// (customer, date, package). One swap suffices.
	f := ftree.New()
	f.NewRelationPath("date", "customer", "package")
	cat := []ftree.CatalogRelation{{Name: "R3", Attrs: []string{"date", "customer", "package"}, Size: 100}}
	q := &query.Query{
		Relations: []string{"R3"},
		OrderBy: []query.OrderItem{
			{Attr: "customer"}, {Attr: "date"}, {Attr: "package"},
		},
	}
	pl, err := (&Planner{Catalog: cat}).Plan(f, q)
	if err != nil {
		t.Fatal(err)
	}
	swaps := 0
	for _, op := range pl.Ops {
		if _, ok := op.(SwapOp); ok {
			swaps++
		}
	}
	if swaps != 1 {
		t.Errorf("Q13 should need exactly one swap, got %d: %s", swaps, pl)
	}
}

func TestAlreadySupportedOrderNeedsNoOps(t *testing.T) {
	// Q11-style: both (package,date,item) and (package,item,date) are
	// supported by the same f-tree — no restructuring needed.
	f := ftree.New()
	tok := f.NewToken()
	pkg := &ftree.Node{Attrs: []string{"package"}, Deps: ftree.NewTokenSet(tok)}
	date := &ftree.Node{Attrs: []string{"date"}, Deps: ftree.NewTokenSet(tok), Parent: pkg}
	item := &ftree.Node{Attrs: []string{"item"}, Deps: ftree.NewTokenSet(tok), Parent: pkg}
	pkg.Children = []*ftree.Node{date, item}
	f.Roots = []*ftree.Node{pkg}
	cat := []ftree.CatalogRelation{{Name: "R2", Attrs: []string{"package", "date", "item"}, Size: 100}}
	q := &query.Query{
		Relations: []string{"R2"},
		OrderBy:   []query.OrderItem{{Attr: "package"}, {Attr: "item"}, {Attr: "date"}},
	}
	pl, err := (&Planner{Catalog: cat}).Plan(f, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Ops) != 0 {
		t.Errorf("supported order should need no ops, got %s", pl)
	}
}

func TestPlanErrors(t *testing.T) {
	f, cat := pizzeriaForest()
	p := &Planner{Catalog: cat}
	bad := &query.Query{
		Relations:  []string{"Orders"},
		Equalities: []query.Equality{{A: "pizza", B: "nope"}},
	}
	if _, err := p.Plan(f, bad); err == nil {
		t.Error("unknown equality attribute should fail")
	}
	badQ := &query.Query{}
	if _, err := p.Plan(f, badQ); err == nil {
		t.Error("invalid query should fail")
	}
}

func TestOpStringsAndTreeApply(t *testing.T) {
	ops := []Op{
		SwapOp{Attr: "a"},
		MergeOp{A: "a", B: "b"},
		AbsorbOp{Anc: "a", Desc: "b"},
		SelectConstOp{Attr: "a", Cmp: fops.EQ, Const: values.NewInt(1)},
		GammaOp{Attr: "a", Fields: []ftree.AggField{{Fn: ftree.Count}}},
		RemoveOp{Attr: "a"},
		RenameOp{From: "a", To: "z"},
	}
	for _, op := range ops {
		if op.String() == "" {
			t.Errorf("empty string for %T", op)
		}
		// All ops must fail cleanly on an unknown attribute.
		f := ftree.New()
		f.NewRelationPath("x")
		if op, ok := op.(interface{ ApplyTree(*ftree.Forest) error }); ok {
			if err := op.ApplyTree(f); err == nil {
				if _, isSel := op.(SelectConstOp); !isSel {
					t.Errorf("%v should fail on missing attribute", op)
				}
			}
		}
	}
}
