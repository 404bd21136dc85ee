package frep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

func iv(i int64) values.Value  { return values.NewInt(i) }
func sv(s string) values.Value { return values.NewString(s) }

// pizzeria returns the paper's example database (Figure 1) joined:
// R = Orders ⋈ Pizzas ⋈ Items (13 tuples), plus the f-tree T1.
func pizzeria() (*relation.Relation, *ftree.Forest, map[string]*ftree.Node) {
	orders := relation.MustNew("Orders", []string{"customer", "date", "pizza"}, []relation.Tuple{
		{sv("Mario"), sv("Monday"), sv("Capricciosa")},
		{sv("Mario"), sv("Tuesday"), sv("Margherita")},
		{sv("Pietro"), sv("Friday"), sv("Hawaii")},
		{sv("Lucia"), sv("Friday"), sv("Hawaii")},
		{sv("Mario"), sv("Friday"), sv("Capricciosa")},
	})
	pizzas := relation.MustNew("Pizzas", []string{"pizza", "item"}, []relation.Tuple{
		{sv("Margherita"), sv("base")},
		{sv("Capricciosa"), sv("base")},
		{sv("Capricciosa"), sv("ham")},
		{sv("Capricciosa"), sv("mushrooms")},
		{sv("Hawaii"), sv("base")},
		{sv("Hawaii"), sv("ham")},
		{sv("Hawaii"), sv("pineapple")},
	})
	items := relation.MustNew("Items", []string{"item", "price"}, []relation.Tuple{
		{sv("base"), iv(6)},
		{sv("ham"), iv(1)},
		{sv("mushrooms"), iv(1)},
		{sv("pineapple"), iv(2)},
	})
	r := relation.NaturalJoinAll(orders, pizzas, items)

	f := ftree.New()
	o, p, i := f.NewToken(), f.NewToken(), f.NewToken()
	pizza := &ftree.Node{Attrs: []string{"pizza"}, Deps: ftree.NewTokenSet(o, p)}
	date := &ftree.Node{Attrs: []string{"date"}, Deps: ftree.NewTokenSet(o), Parent: pizza}
	customer := &ftree.Node{Attrs: []string{"customer"}, Deps: ftree.NewTokenSet(o), Parent: date}
	item := &ftree.Node{Attrs: []string{"item"}, Deps: ftree.NewTokenSet(p, i), Parent: pizza}
	price := &ftree.Node{Attrs: []string{"price"}, Deps: ftree.NewTokenSet(i), Parent: item}
	pizza.Children = []*ftree.Node{date, item}
	date.Children = []*ftree.Node{customer}
	item.Children = []*ftree.Node{price}
	f.Roots = []*ftree.Node{pizza}
	m := map[string]*ftree.Node{
		"pizza": pizza, "date": date, "customer": customer, "item": item, "price": price,
	}
	return r, f, m
}

func buildPizzeria(t *testing.T) (*relation.Relation, *ftree.Forest, *Store, []NodeID) {
	t.Helper()
	r, f, _ := pizzeria()
	s := NewStore()
	roots, err := BuildStore(s, r, f)
	if err != nil {
		t.Fatal(err)
	}
	return r, f, s, roots
}

func TestBuildPizzeriaFigure1(t *testing.T) {
	r, f, s, roots := buildPizzeria(t)
	if err := CheckStoreInvariantsAll(f, s, roots); err != nil {
		t.Fatal(err)
	}
	// Figure 1's factorisation has 26 singletons (3 pizzas, 4 dates, 4
	// customers, 7 items, 7 prices, plus 1 extra date singleton… counted
	// structurally: 3+4+4+7+7+…). Verified by hand: 26.
	if got := s.SingletonsAll(roots); got != 26 {
		t.Errorf("singletons = %d, want 26", got)
	}
	if got := s.CountPlain(roots[0]); got != 13 {
		t.Errorf("count = %d, want 13", got)
	}
	flat, err := FlattenStore(f, s, roots)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualAsSets(flat, r) {
		t.Errorf("flatten ≠ original:\n%v\nvs\n%v", flat, r)
	}
}

func TestBuildRejectsInvalidFTree(t *testing.T) {
	// A forest with customer and pizza as independent roots cannot
	// represent R (customers depend on pizzas).
	r, _, _ := pizzeria()
	f := ftree.New()
	f.NewRelationPath("customer")
	f.NewRelationPath("pizza", "date", "item", "price")
	if _, err := BuildStore(NewStore(), r, f); err == nil {
		t.Fatal("BuildStore should reject an invalid decomposition")
	}
	// BuildStoreUnchecked accepts it but represents a superset.
	s := NewStore()
	roots, err := BuildStoreUnchecked(s, r, f)
	if err != nil {
		t.Fatal(err)
	}
	n, err := CountAllStore(f, s, roots)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 13 {
		t.Errorf("unchecked build should overcount: got %d", n)
	}
}

func TestBuildErrors(t *testing.T) {
	r, _, _ := pizzeria()
	f := ftree.New()
	f.NewRelationPath("pizza", "date")
	if _, err := BuildStore(NewStore(), r, f); err == nil {
		t.Error("f-tree not covering all attributes should fail")
	}
	g := ftree.New()
	g.NewRelationPath("pizza", "date", "customer", "item", "bogus")
	if _, err := BuildStore(NewStore(), r, g); err == nil {
		t.Error("f-tree with unknown attribute should fail")
	}
}

func TestBuildEmptyRelation(t *testing.T) {
	empty := relation.MustNew("E", []string{"a", "b"}, nil)
	f := ftree.New()
	f.NewRelationPath("a", "b")
	s := NewStore()
	roots, err := BuildStore(s, empty, f)
	if err != nil {
		t.Fatal(err)
	}
	if roots[0] != EmptyNode {
		t.Error("empty relation should build the empty union")
	}
	flat, err := FlattenStore(f, s, roots)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Cardinality() != 0 {
		t.Error("flatten of empty should be empty")
	}
}

func TestBuildMergedClass(t *testing.T) {
	// Class {a,b} requires a=b per tuple.
	rel := relation.MustNew("R", []string{"a", "b"}, []relation.Tuple{
		{iv(1), iv(1)}, {iv(2), iv(2)},
	})
	f := ftree.New()
	tok := f.NewToken()
	n := &ftree.Node{Attrs: []string{"a", "b"}, Deps: ftree.NewTokenSet(tok)}
	f.Roots = []*ftree.Node{n}
	s := NewStore()
	roots, err := BuildStore(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len(roots[0]) != 2 {
		t.Errorf("merged class union length = %d, want 2", s.Len(roots[0]))
	}
	bad := relation.MustNew("R", []string{"a", "b"}, []relation.Tuple{{iv(1), iv(2)}})
	if _, err := BuildStore(NewStore(), bad, f); err == nil {
		t.Error("unequal class values should fail")
	}
}

func TestEvaluatorWholeTree(t *testing.T) {
	_, f, s, roots := buildPizzeria(t)
	root := f.Roots[0]
	ev, err := NewEvaluator(root, []ftree.AggField{
		{Fn: ftree.Count},
		{Fn: ftree.Sum, Arg: "price"},
		{Fn: ftree.Min, Arg: "price"},
		{Fn: ftree.Max, Arg: "price"},
		{Fn: ftree.Min, Arg: "customer"},
		{Fn: ftree.Sum, Arg: "date"},
	})
	if err == nil {
		// sum over a string attribute will fail at eval time via Add
		// panics — construct without it instead.
		t.Log("constructed evaluator including string sum; evaluating only numeric fields below")
	}
	ev, err = NewEvaluator(root, []ftree.AggField{
		{Fn: ftree.Count},
		{Fn: ftree.Sum, Arg: "price"},
		{Fn: ftree.Min, Arg: "price"},
		{Fn: ftree.Max, Arg: "price"},
		{Fn: ftree.Min, Arg: "customer"},
		{Fn: ftree.Max, Arg: "customer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.EvalStore(s, roots[0])
	if err != nil {
		t.Fatal(err)
	}
	// R has 13 tuples; Σprice = 2·8 + 2·9 + 6 = 40; min price 1; max 6;
	// min customer "Lucia"; max customer "Pietro".
	want := []values.Value{iv(13), iv(40), iv(1), iv(6), sv("Lucia"), sv("Pietro")}
	for i := range want {
		if values.Compare(got[i], want[i]) != 0 {
			t.Errorf("field %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEvaluatorSubtree(t *testing.T) {
	_, f, s, roots := buildPizzeria(t)
	item := f.AttrNode("item")
	ev, err := NewEvaluator(item, []ftree.AggField{{Fn: ftree.Sum, Arg: "price"}})
	if err != nil {
		t.Fatal(err)
	}
	// The item-subtree occurrence under Capricciosa sums to 8.
	// Capricciosa is Vals[0] (sorted), and item is child 1 of pizza.
	got, err := ev.EvalStore(s, s.Kid(roots[0], 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int() != 8 {
		t.Errorf("sum_price(Capricciosa items) = %v, want 8", got[0])
	}
}

func TestEvaluatorAggInterpretation(t *testing.T) {
	// Example 6: Pizzas after γ_count(item):
	// ⟨Capricciosa⟩×⟨count:3⟩ ∪ ⟨Hawaii⟩×⟨count:3⟩ ∪ ⟨Margherita⟩×⟨count:1⟩;
	// a subsequent count(pizza,item) must yield 7, not 3.
	f := ftree.New()
	tok := f.NewToken()
	pizza := &ftree.Node{Attrs: []string{"pizza"}, Deps: ftree.NewTokenSet(tok)}
	cnt := &ftree.Node{
		Agg:    &ftree.Agg{Fields: []ftree.AggField{{Fn: ftree.Count}}, Over: []string{"item"}},
		Deps:   ftree.NewTokenSet(tok),
		Parent: pizza,
	}
	pizza.Children = []*ftree.Node{cnt}
	f.Roots = []*ftree.Node{pizza}

	s := NewStore()
	rep := s.Add([]values.Value{sv("Capricciosa"), sv("Hawaii"), sv("Margherita")}, 1,
		[]NodeID{s.AddLeaf(ivs(3)), s.AddLeaf(ivs(3)), s.AddLeaf(ivs(1))})
	if err := CheckStoreInvariantsAll(f, s, []NodeID{rep}); err != nil {
		t.Fatal(err)
	}
	n, err := CountStore(pizza, s, rep)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Errorf("count with aggregate interpretation = %d, want 7", n)
	}
	// CountPlain ignores the interpretation: 3 values × 1 = 3.
	if got := s.CountPlain(rep); got != 3 {
		t.Errorf("CountPlain = %d, want 3", got)
	}
}

func TestEvaluatorSumWithCountNodes(t *testing.T) {
	// Example 8: T4 = customer → pizza → {count_date(date), sum_price(item,price)};
	// γ_sum_price over the pizza subtree must give Mario 22.
	f := ftree.New()
	tok := f.NewToken()
	customer := &ftree.Node{Attrs: []string{"customer"}, Deps: ftree.NewTokenSet(tok)}
	pizza := &ftree.Node{Attrs: []string{"pizza"}, Deps: ftree.NewTokenSet(tok), Parent: customer}
	cd := &ftree.Node{
		Agg:    &ftree.Agg{Fields: []ftree.AggField{{Fn: ftree.Count}}, Over: []string{"date"}},
		Deps:   ftree.NewTokenSet(tok),
		Parent: pizza,
	}
	sp := &ftree.Node{
		Agg:    &ftree.Agg{Fields: []ftree.AggField{{Fn: ftree.Sum, Arg: "price"}}, Over: []string{"item", "price"}},
		Deps:   ftree.NewTokenSet(tok),
		Parent: pizza,
	}
	customer.Children = []*ftree.Node{pizza}
	pizza.Children = []*ftree.Node{cd, sp}
	f.Roots = []*ftree.Node{customer}

	s := NewStore()
	mario := s.Add([]values.Value{sv("Capricciosa"), sv("Margherita")}, 2, []NodeID{
		s.AddLeaf(ivs(2)), s.AddLeaf(ivs(8)),
		s.AddLeaf(ivs(1)), s.AddLeaf(ivs(6)),
	})
	ev, err := NewEvaluator(pizza, []ftree.AggField{{Fn: ftree.Sum, Arg: "price"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.EvalStore(s, mario)
	if err != nil {
		t.Fatal(err)
	}
	// 2·8 + 1·6 = 22 (Example 8).
	if got[0].Int() != 22 {
		t.Errorf("sum = %v, want 22", got[0])
	}
	// Counting over the same subtree: 2·1·1 + 1·1·1 … but count over a
	// subtree containing a sum-only aggregate node is invalid
	// composition.
	if _, err := NewEvaluator(pizza, []ftree.AggField{{Fn: ftree.Count}}); err == nil {
		t.Error("count over sum-only aggregate should be rejected")
	}
	// min over the same subtree ignores multiplicities and is fine for
	// an atomic argument… but price is covered by the sum aggregate, so
	// min_price must be rejected too.
	if _, err := NewEvaluator(pizza, []ftree.AggField{{Fn: ftree.Min, Arg: "price"}}); err == nil {
		t.Error("min over sum-covered attribute should be rejected")
	}
}

func TestEvaluatorCompositeVectorValues(t *testing.T) {
	// A composite aggregate node (sum_price, count) stored as vectors.
	f := ftree.New()
	tok := f.NewToken()
	pizza := &ftree.Node{Attrs: []string{"pizza"}, Deps: ftree.NewTokenSet(tok)}
	comp := &ftree.Node{
		Agg: &ftree.Agg{
			Fields: []ftree.AggField{{Fn: ftree.Sum, Arg: "price"}, {Fn: ftree.Count}},
			Over:   []string{"item", "price"},
		},
		Deps:   ftree.NewTokenSet(tok),
		Parent: pizza,
	}
	pizza.Children = []*ftree.Node{comp}
	f.Roots = []*ftree.Node{pizza}

	s := NewStore()
	vec := func(sum, c int64) NodeID {
		return s.AddLeaf([]values.Value{values.NewVec([]values.Value{iv(sum), iv(c)})})
	}
	rep := s.Add([]values.Value{sv("Capricciosa"), sv("Hawaii")}, 1, []NodeID{vec(8, 3), vec(9, 3)})
	ev, err := NewEvaluator(pizza, []ftree.AggField{
		{Fn: ftree.Count},
		{Fn: ftree.Sum, Arg: "price"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.EvalStore(s, rep)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int() != 6 {
		t.Errorf("count = %v, want 6", got[0])
	}
	if got[1].Int() != 17 {
		t.Errorf("sum = %v, want 17 (8+9)", got[1])
	}
}

func TestEvaluatorEmptyRep(t *testing.T) {
	f := ftree.New()
	f.NewRelationPath("a", "b")
	ev, err := NewEvaluator(f.Roots[0], []ftree.AggField{
		{Fn: ftree.Count}, {Fn: ftree.Sum, Arg: "b"}, {Fn: ftree.Min, Arg: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.EvalStore(NewStore(), EmptyNode)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int() != 0 {
		t.Errorf("count(∅) = %v, want 0", got[0])
	}
	if !got[1].IsNull() || !got[2].IsNull() {
		t.Errorf("sum/min over ∅ should be Null, got %v, %v", got[1], got[2])
	}
}

func TestEvaluatorUnknownAttr(t *testing.T) {
	_, f, _, _ := buildPizzeria(t)
	if _, err := NewEvaluator(f.Roots[0], []ftree.AggField{{Fn: ftree.Sum, Arg: "bogus"}}); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := NewEvaluator(f.Roots[0], nil); err == nil {
		t.Error("no fields should fail")
	}
}

func TestEnumeratorDocumentOrder(t *testing.T) {
	r, f, s, roots := buildPizzeria(t)
	e, err := NewStoreEnumerator(f, s, roots, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSchema := []string{"pizza", "date", "customer", "item", "price"}
	for i, s := range e.Schema() {
		if s != wantSchema[i] {
			t.Fatalf("schema = %v, want %v", e.Schema(), wantSchema)
		}
	}
	var rows []relation.Tuple
	for e.Next() {
		rows = append(rows, e.Tuple().Clone())
	}
	if len(rows) != 13 {
		t.Fatalf("enumerated %d rows, want 13", len(rows))
	}
	// Document order = sorted lexicographically by the DFS attribute
	// order.
	for i := 1; i < len(rows); i++ {
		if relation.Compare(rows[i-1], rows[i]) >= 0 {
			t.Errorf("rows out of order at %d: %v ≥ %v", i, rows[i-1], rows[i])
		}
	}
	got := relation.MustNew("E", e.Schema(), rows)
	if !relation.EqualAsSets(got, r) {
		t.Error("enumerated set ≠ relation")
	}
}

func TestEnumeratorOrdered(t *testing.T) {
	_, f, s, roots := buildPizzeria(t)
	e, err := NewStoreEnumerator(f, s, roots, []OrderSpec{
		{Attr: "pizza", Desc: true},
		{Attr: "item"},
		{Attr: "date"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows []relation.Tuple
	pIdx, iIdx, dIdx := 0, 3, 1 // schema stays (pizza,date,customer,item,price)
	for e.Next() {
		rows = append(rows, e.Tuple().Clone())
	}
	if len(rows) != 13 {
		t.Fatalf("enumerated %d rows, want 13", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		c := values.Compare(a[pIdx], b[pIdx])
		if c < 0 {
			t.Fatalf("pizza should be descending at row %d", i)
		}
		if c == 0 {
			ci := values.Compare(a[iIdx], b[iIdx])
			if ci > 0 {
				t.Fatalf("item should be ascending within pizza at row %d", i)
			}
			if ci == 0 && values.Compare(a[dIdx], b[dIdx]) > 0 {
				t.Fatalf("date should be ascending within (pizza,item) at row %d", i)
			}
		}
	}
	if rows[0][pIdx].Str() != "Margherita" {
		t.Errorf("first pizza = %v, want Margherita (descending)", rows[0][pIdx])
	}
}

func TestEnumeratorUnsupportedOrder(t *testing.T) {
	_, f, s, roots := buildPizzeria(t)
	if _, err := NewStoreEnumerator(f, s, roots, []OrderSpec{{Attr: "customer"}}); err == nil {
		t.Error("order by customer alone should be unsupported on T1")
	}
	if _, err := NewStoreEnumerator(f, s, roots, []OrderSpec{{Attr: "nope"}}); err == nil {
		t.Error("unknown order attribute should fail")
	}
}

func TestEnumeratorEmpty(t *testing.T) {
	f := ftree.New()
	f.NewRelationPath("a")
	e, err := NewStoreEnumerator(f, NewStore(), []NodeID{EmptyNode}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Next() {
		t.Error("empty representation should yield no tuples")
	}
	if e.Next() {
		t.Error("Next after done should stay false")
	}
}

func TestEnumeratorNullaryForest(t *testing.T) {
	f := ftree.New()
	e, err := NewStoreEnumerator(f, NewStore(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Next() {
		t.Fatal("empty forest represents the nullary tuple ⟨⟩")
	}
	if len(e.Tuple()) != 0 {
		t.Error("nullary tuple should be empty")
	}
	if e.Next() {
		t.Error("only one nullary tuple")
	}
}

func TestEnumeratorMultiRootProduct(t *testing.T) {
	f := ftree.New()
	f.NewRelationPath("a")
	f.NewRelationPath("b")
	s := NewStore()
	ra, rb := s.AddLeaf(ivs(1, 2)), s.AddLeaf(ivs(10, 20, 30))
	e, err := NewStoreEnumerator(f, s, []NodeID{ra, rb}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for e.Next() {
		n++
	}
	if n != 6 {
		t.Errorf("product enumeration = %d rows, want 6", n)
	}
	// One empty root → empty product.
	e2, err := NewStoreEnumerator(f, s, []NodeID{ra, EmptyNode}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Next() {
		t.Error("product with empty factor should be empty")
	}
}

func TestGroupEnumeratorByPizza(t *testing.T) {
	_, f, s, roots := buildPizzeria(t)
	ge, err := NewStoreGroupEnumerator(f, s, roots, []OrderSpec{{Attr: "pizza"}}, []ftree.AggField{
		{Fn: ftree.Count},
		{Fn: ftree.Sum, Arg: "price"},
		{Fn: ftree.Min, Arg: "price"},
	})
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		pizza string
		cnt   int64
		sum   int64
		min   int64
	}
	var got []row
	for {
		ok, err := ge.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		tp := ge.Tuple()
		got = append(got, row{tp[0].Str(), tp[1].Int(), tp[2].Int(), tp[3].Int()})
	}
	want := []row{
		{"Capricciosa", 6, 16, 1},
		{"Hawaii", 6, 18, 1},
		{"Margherita", 1, 6, 6},
	}
	if len(got) != len(want) {
		t.Fatalf("groups = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("group %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestGroupEnumeratorGlobal(t *testing.T) {
	_, f, s, roots := buildPizzeria(t)
	ge, err := NewStoreGroupEnumerator(f, s, roots, nil, []ftree.AggField{
		{Fn: ftree.Count}, {Fn: ftree.Sum, Arg: "price"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ge.Next()
	if err != nil || !ok {
		t.Fatalf("want one global group, ok=%v err=%v", ok, err)
	}
	tp := ge.Tuple()
	if tp[0].Int() != 13 || tp[1].Int() != 40 {
		t.Errorf("global aggregates = %v, want (13, 40)", tp)
	}
	ok, err = ge.Next()
	if err != nil || ok {
		t.Error("only one global group expected")
	}
}

func TestGroupEnumeratorUnsupported(t *testing.T) {
	_, f, s, roots := buildPizzeria(t)
	if _, err := NewStoreGroupEnumerator(f, s, roots, []OrderSpec{{Attr: "customer"}}, []ftree.AggField{{Fn: ftree.Count}}); err == nil {
		t.Error("grouping by customer unsupported on T1")
	}
}

func TestGroupEnumeratorTwoLevels(t *testing.T) {
	// Group by (pizza, date): date is a child of pizza, supported.
	_, f, s, roots := buildPizzeria(t)
	ge, err := NewStoreGroupEnumerator(f, s, roots, []OrderSpec{{Attr: "pizza"}, {Attr: "date"}}, []ftree.AggField{
		{Fn: ftree.Count},
		{Fn: ftree.Sum, Arg: "price"},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	groups := 0
	for {
		ok, err := ge.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		groups++
		total += ge.Tuple()[2].Int()
	}
	// Groups: Capricciosa×{Monday,Friday}, Hawaii×{Friday}, Margherita×{Tuesday} = 4.
	if groups != 4 {
		t.Errorf("groups = %d, want 4", groups)
	}
	if total != 13 {
		t.Errorf("Σcount = %d, want 13", total)
	}
}

// Property: BuildStore → FlattenStore is the identity (up to dedup) and Count
// matches, on random two-relation joins factorised with the join attribute
// on top.
func TestBuildFlattenRoundTripProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(name string, attrs []string, n, dom int) *relation.Relation {
			ts := make([]relation.Tuple, n)
			for i := range ts {
				tp := make(relation.Tuple, len(attrs))
				for j := range tp {
					tp[j] = iv(int64(rng.Intn(dom)))
				}
				ts[i] = tp
			}
			return relation.MustNew(name, attrs, ts)
		}
		r := mk("R", []string{"b", "a"}, 1+rng.Intn(20), 4)
		s := mk("S", []string{"b", "c"}, 1+rng.Intn(20), 4)
		j := relation.NaturalJoin(r, s).Dedup()
		if j.Cardinality() == 0 {
			return true
		}
		f := ftree.New()
		rt, st := f.NewToken(), f.NewToken()
		b := &ftree.Node{Attrs: []string{"b"}, Deps: ftree.NewTokenSet(rt, st)}
		a := &ftree.Node{Attrs: []string{"a"}, Deps: ftree.NewTokenSet(rt), Parent: b}
		c := &ftree.Node{Attrs: []string{"c"}, Deps: ftree.NewTokenSet(st), Parent: b}
		b.Children = []*ftree.Node{a, c}
		f.Roots = []*ftree.Node{b}

		store := NewStore()
		roots, err := BuildStore(store, j, f)
		if err != nil {
			return false
		}
		if err := CheckStoreInvariantsAll(f, store, roots); err != nil {
			return false
		}
		if store.CountPlain(roots[0]) != int64(j.Cardinality()) {
			return false
		}
		flat, err := FlattenStore(f, store, roots)
		if err != nil {
			return false
		}
		return relation.EqualAsSets(flat, j)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: evaluator results match relational aggregation on random
// linear-path factorisations.
func TestEvaluatorMatchesRelationalProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		ts := make([]relation.Tuple, n)
		for i := range ts {
			ts[i] = relation.Tuple{iv(int64(rng.Intn(5))), iv(int64(rng.Intn(7))), iv(int64(rng.Intn(9) - 4))}
		}
		rel := relation.MustNew("R", []string{"x", "y", "z"}, ts).Dedup()
		f := ftree.New()
		f.NewRelationPath("x", "y", "z")
		st := NewStore()
		roots, err := BuildStore(st, rel, f)
		if err != nil {
			return false
		}
		ev, err := NewEvaluator(f.Roots[0], []ftree.AggField{
			{Fn: ftree.Count},
			{Fn: ftree.Sum, Arg: "z"},
			{Fn: ftree.Min, Arg: "z"},
			{Fn: ftree.Max, Arg: "y"},
		})
		if err != nil {
			return false
		}
		got, err := ev.EvalStore(st, roots[0])
		if err != nil {
			return false
		}
		var sum, minz, maxy int64
		minz, maxy = 1<<62, -(1 << 62)
		for _, tp := range rel.Tuples {
			sum += tp[2].Int()
			if tp[2].Int() < minz {
				minz = tp[2].Int()
			}
			if tp[1].Int() > maxy {
				maxy = tp[1].Int()
			}
		}
		return got[0].Int() == int64(rel.Cardinality()) &&
			got[1].Int() == sum && got[2].Int() == minz && got[3].Int() == maxy
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
