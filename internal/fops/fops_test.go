package fops

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

func init() { Paranoid = true }

func iv(i int64) values.Value  { return values.NewInt(i) }
func sv(s string) values.Value { return values.NewString(s) }

func ordersRel() *relation.Relation {
	return relation.MustNew("Orders", []string{"customer", "date", "pizza"}, []relation.Tuple{
		{sv("Mario"), sv("Monday"), sv("Capricciosa")},
		{sv("Mario"), sv("Tuesday"), sv("Margherita")},
		{sv("Pietro"), sv("Friday"), sv("Hawaii")},
		{sv("Lucia"), sv("Friday"), sv("Hawaii")},
		{sv("Mario"), sv("Friday"), sv("Capricciosa")},
	})
}

func pizzasRel() *relation.Relation {
	return relation.MustNew("Pizzas", []string{"pizza", "item"}, []relation.Tuple{
		{sv("Margherita"), sv("base")},
		{sv("Capricciosa"), sv("base")},
		{sv("Capricciosa"), sv("ham")},
		{sv("Capricciosa"), sv("mushrooms")},
		{sv("Hawaii"), sv("base")},
		{sv("Hawaii"), sv("ham")},
		{sv("Hawaii"), sv("pineapple")},
	})
}

func itemsRel() *relation.Relation {
	return relation.MustNew("Items", []string{"item", "price"}, []relation.Tuple{
		{sv("base"), iv(6)},
		{sv("ham"), iv(1)},
		{sv("mushrooms"), iv(1)},
		{sv("pineapple"), iv(2)},
	})
}

// pizzeriaARel builds R = Orders ⋈ Pizzas ⋈ Items factorised over T1.
func pizzeriaARel(t *testing.T) (*ARel, *relation.Relation) {
	t.Helper()
	r := relation.NaturalJoinAll(ordersRel(), pizzasRel(), itemsRel())
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

	fr, err := FromRelationStore(frep.NewStore(), r, f)
	if err != nil {
		t.Fatal(err)
	}
	return fr, r
}

func mustFlatten(t *testing.T, fr *ARel) *relation.Relation {
	t.Helper()
	if err := fr.Check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	flat, err := fr.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

func TestSwapPreservesRelation(t *testing.T) {
	fr, r := pizzeriaARel(t)
	before := fr.Singletons()
	if err := fr.Swap("date"); err != nil {
		t.Fatal(err)
	}
	if !relation.EqualAsSets(mustFlatten(t, fr), r) {
		t.Fatal("swap changed the represented relation")
	}
	if fr.Tree.Roots[0].Label() != "date" {
		t.Errorf("date should be root:\n%s", fr.Tree)
	}
	// Swap again: pizza back above date.
	if err := fr.Swap("pizza"); err != nil {
		t.Fatal(err)
	}
	if !relation.EqualAsSets(mustFlatten(t, fr), r) {
		t.Fatal("second swap changed the represented relation")
	}
	if fr.Tree.Roots[0].Label() != "pizza" {
		t.Errorf("pizza should be root again:\n%s", fr.Tree)
	}
	_ = before
}

func TestSwapIndependentBranch(t *testing.T) {
	// Orders = Menu(pizza,date) ⋈ Guests(date,customer): customer is
	// independent of pizza given date, so swapping date up carries
	// customer along and shares the customer list across pizzas.
	menu := relation.MustNew("Menu", []string{"pizza", "date"}, []relation.Tuple{
		{sv("Capricciosa"), sv("Friday")},
		{sv("Hawaii"), sv("Friday")},
		{sv("Margherita"), sv("Monday")},
	})
	guests := relation.MustNew("Guests", []string{"date", "customer"}, []relation.Tuple{
		{sv("Friday"), sv("Lucia")},
		{sv("Friday"), sv("Pietro")},
		{sv("Monday"), sv("Mario")},
	})
	r := relation.NaturalJoin(menu, guests)

	f := ftree.New()
	m, g := f.NewToken(), f.NewToken()
	pizza := &ftree.Node{Attrs: []string{"pizza"}, Deps: ftree.NewTokenSet(m)}
	date := &ftree.Node{Attrs: []string{"date"}, Deps: ftree.NewTokenSet(m, g), Parent: pizza}
	customer := &ftree.Node{Attrs: []string{"customer"}, Deps: ftree.NewTokenSet(g), Parent: date}
	pizza.Children = []*ftree.Node{date}
	date.Children = []*ftree.Node{customer}
	f.Roots = []*ftree.Node{pizza}

	fr, err := FromRelationStore(frep.NewStore(), r, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Swap("date"); err != nil {
		t.Fatal(err)
	}
	if !relation.EqualAsSets(mustFlatten(t, fr), r) {
		t.Fatal("swap changed the represented relation")
	}
	d := fr.Tree.Roots[0]
	if d.Label() != "date" || len(d.Children) != 2 {
		t.Fatalf("want date root with two children:\n%s", fr.Tree)
	}
	// Friday's customer list is now shared: singletons should have
	// dropped (before the swap Lucia+Pietro were stored under both
	// pizzas: 3+3+4 = 10; after it: 2 dates + 3 pizzas + 3 customers).
	if got := fr.Singletons(); got != 2+3+3 {
		t.Errorf("singletons after swap = %d, want 8 (2 dates+3 pizzas+3 customers)", got)
	}
}

func TestSelectConst(t *testing.T) {
	fr, r := pizzeriaARel(t)
	if err := fr.SelectConst("price", GT, iv(1)); err != nil {
		t.Fatal(err)
	}
	want := r.Select(func(tp relation.Tuple) bool {
		return tp[r.ColIndex("price")].Int() > 1
	})
	if !relation.EqualAsSets(mustFlatten(t, fr), want) {
		t.Fatal("select result mismatch")
	}
	// Select on the root attribute.
	fr2, r2 := pizzeriaARel(t)
	if err := fr2.SelectConst("pizza", EQ, sv("Hawaii")); err != nil {
		t.Fatal(err)
	}
	want2 := r2.Select(func(tp relation.Tuple) bool {
		return tp[r2.ColIndex("pizza")].Str() == "Hawaii"
	})
	if !relation.EqualAsSets(mustFlatten(t, fr2), want2) {
		t.Fatal("root select mismatch")
	}
	// Select everything away.
	if err := fr2.SelectConst("price", GT, iv(100)); err != nil {
		t.Fatal(err)
	}
	if !fr2.IsEmpty() {
		t.Error("selection with empty result should empty the representation")
	}
	if got := mustFlatten(t, fr2); got.Cardinality() != 0 {
		t.Errorf("flatten of empty = %d tuples", got.Cardinality())
	}
	if err := fr2.SelectConst("bogus", EQ, iv(1)); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestMergeRootSiblings(t *testing.T) {
	// Pizzas over path item→pizza, Items over path item2→price; merge
	// item=item2.
	p := pizzasRel()
	i := relation.MustNew("Items", []string{"item2", "price"}, itemsRel().Tuples)

	fp := ftree.New()
	fp.NewRelationPath("item", "pizza")
	frP, err := FromRelationStoreUnchecked(frep.NewStore(), p, fp)
	if err != nil {
		t.Fatal(err)
	}
	fi := ftree.New()
	fi.NewRelationPath("item2", "price")
	frI, err := FromRelationStoreUnchecked(frep.NewStore(), i, fi)
	if err != nil {
		t.Fatal(err)
	}
	fr := Product(frP, frI)
	if err := fr.Merge("item", "item2"); err != nil {
		t.Fatal(err)
	}
	got := mustFlatten(t, fr)
	want := relation.NaturalJoin(pizzasRel(), itemsRel())
	// Align: flattened schema has item and item2 as separate columns with
	// equal values; project away item2 for comparison.
	proj, err := got.Project("pizza", "item", "price")
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualAsSets(proj, want) {
		t.Fatalf("merge result mismatch:\n%v\nvs\n%v", proj, want)
	}
}

func TestMergeEmptyIntersection(t *testing.T) {
	a := relation.MustNew("A", []string{"x"}, []relation.Tuple{{iv(1)}, {iv(2)}})
	b := relation.MustNew("B", []string{"y"}, []relation.Tuple{{iv(3)}, {iv(4)}})
	fa, fb := ftree.New(), ftree.New()
	fa.NewRelationPath("x")
	fb.NewRelationPath("y")
	frA, _ := FromRelationStoreUnchecked(frep.NewStore(), a, fa)
	frB, _ := FromRelationStoreUnchecked(frep.NewStore(), b, fb)
	fr := Product(frA, frB)
	if err := fr.Merge("x", "y"); err != nil {
		t.Fatal(err)
	}
	if !fr.IsEmpty() {
		t.Error("disjoint merge should be empty")
	}
	if err := fr.Check(); err != nil {
		t.Error(err)
	}
}

func TestAbsorb(t *testing.T) {
	// U(a,b,a2) over linear path a→b→a2; absorb(a,a2) = σ_{a=a2}(U).
	u := relation.MustNew("U", []string{"a", "b", "a2"}, []relation.Tuple{
		{iv(1), iv(10), iv(1)},
		{iv(1), iv(10), iv(2)},
		{iv(1), iv(11), iv(1)},
		{iv(2), iv(10), iv(2)},
		{iv(2), iv(12), iv(1)},
		{iv(3), iv(13), iv(1)},
	})
	f := ftree.New()
	f.NewRelationPath("a", "b", "a2")
	fr, err := FromRelationStoreUnchecked(frep.NewStore(), u, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Absorb("a", "a2"); err != nil {
		t.Fatal(err)
	}
	got := mustFlatten(t, fr)
	want := u.Select(func(tp relation.Tuple) bool {
		return values.Compare(tp[0], tp[2]) == 0
	})
	if !relation.EqualAsSets(got, want) {
		t.Fatalf("absorb mismatch:\n%v\nvs\n%v", got, want)
	}
	// The class is merged.
	if fr.Tree.Roots[0].Label() != "a=a2" {
		t.Errorf("class = %s, want a=a2", fr.Tree.Roots[0].Label())
	}
}

func TestAbsorbDeeper(t *testing.T) {
	// Absorb two levels down with sibling subtrees that must be pruned
	// when the descendant value is missing.
	u := relation.MustNew("U", []string{"a", "b", "c", "a2"}, []relation.Tuple{
		{iv(1), iv(10), iv(7), iv(1)},
		{iv(1), iv(10), iv(8), iv(3)},
		{iv(2), iv(11), iv(7), iv(2)},
		{iv(2), iv(11), iv(9), iv(5)},
		{iv(3), iv(12), iv(7), iv(1)},
	})
	f := ftree.New()
	f.NewRelationPath("a", "b", "c", "a2")
	fr, err := FromRelationStoreUnchecked(frep.NewStore(), u, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Absorb("a", "a2"); err != nil {
		t.Fatal(err)
	}
	got := mustFlatten(t, fr)
	want := u.Select(func(tp relation.Tuple) bool {
		return values.Compare(tp[0], tp[3]) == 0
	})
	if !relation.EqualAsSets(got, want) {
		t.Fatalf("deep absorb mismatch:\n%v\nvs\n%v", got, want)
	}
}

func TestRemoveLeaf(t *testing.T) {
	fr, r := pizzeriaARel(t)
	if err := fr.RemoveLeaf("price"); err != nil {
		t.Fatal(err)
	}
	if err := fr.RemoveLeaf("item"); err != nil {
		t.Fatal(err)
	}
	got := mustFlatten(t, fr)
	want, err := r.Project("pizza", "date", "customer")
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualAsSets(got, want) {
		t.Fatal("projection mismatch")
	}
	if err := fr.RemoveLeaf("pizza"); err == nil {
		t.Error("removing a non-leaf should fail")
	}
}

func TestGammaPaperQueryS(t *testing.T) {
	// Query S (introduction): price of each ordered pizza —
	// γ_{sum_price}(item subtree) on T1 gives the factorisation over T2.
	fr, r := pizzeriaARel(t)
	if err := fr.Gamma("item", []ftree.AggField{{Fn: ftree.Sum, Arg: "price"}}); err != nil {
		t.Fatal(err)
	}
	got := mustFlatten(t, fr)
	// Expected: one row per (pizza,date,customer) with the pizza's total
	// price: Capricciosa 8, Hawaii 9, Margherita 6.
	wantRows := []relation.Tuple{
		{sv("Capricciosa"), sv("Monday"), sv("Mario"), iv(8)},
		{sv("Capricciosa"), sv("Friday"), sv("Mario"), iv(8)},
		{sv("Hawaii"), sv("Friday"), sv("Lucia"), iv(9)},
		{sv("Hawaii"), sv("Friday"), sv("Pietro"), iv(9)},
		{sv("Margherita"), sv("Tuesday"), sv("Mario"), iv(6)},
	}
	want := relation.MustNew("S", []string{"pizza", "date", "customer", "sum_price(item,price)"}, wantRows)
	if !relation.EqualAsSets(got, want) {
		t.Fatalf("query S mismatch:\n%v\nvs\n%v", got, want)
	}
	_ = r
}

func TestGammaPaperQueryP(t *testing.T) {
	// Query P (introduction): revenue per customer, via partial
	// aggregation and restructuring — the full pipeline of Example 1.
	fr, _ := pizzeriaARel(t)
	// Step 1: γ_sum_price(item,price) — T1 → T2.
	if err := fr.Gamma("item", []ftree.AggField{{Fn: ftree.Sum, Arg: "price"}}); err != nil {
		t.Fatal(err)
	}
	// Step 2: restructure customer to the root — T2 → T3.
	for {
		v := fr.Tree.GroupingViolation([]string{"customer"})
		if v == nil {
			break
		}
		if err := fr.Swap(v.Attrs[0]); err != nil {
			t.Fatal(err)
		}
		if err := fr.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if !fr.Tree.Roots[0].HasAttr("customer") {
		t.Fatalf("customer should be root:\n%s", fr.Tree)
	}
	// Step 3: γ_count(date) — T3 → T4.
	if err := fr.Gamma("date", []ftree.AggField{{Fn: ftree.Count}}); err != nil {
		t.Fatal(err)
	}
	// Step 4: γ_sum_price over the pizza subtree.
	if err := fr.Gamma("pizza", []ftree.AggField{{Fn: ftree.Sum, Arg: "price"}}); err != nil {
		t.Fatal(err)
	}
	// Rename to revenue.
	agg := fr.Tree.Roots[0].Children[0]
	if !agg.IsAgg() {
		t.Fatalf("expected aggregate node under customer:\n%s", fr.Tree)
	}
	if err := fr.Rename(agg.Label(), "revenue"); err != nil {
		t.Fatal(err)
	}
	got := mustFlatten(t, fr)
	want := relation.MustNew("P", []string{"customer", "revenue"}, []relation.Tuple{
		{sv("Lucia"), iv(9)},
		{sv("Mario"), iv(22)},
		{sv("Pietro"), iv(9)},
	})
	if !relation.EqualAsSets(got, want) {
		t.Fatalf("query P mismatch:\n%v\nvs\n%v", got, want)
	}
}

func TestGammaWholeTree(t *testing.T) {
	fr, _ := pizzeriaARel(t)
	if err := fr.Gamma("pizza", []ftree.AggField{{Fn: ftree.Count}, {Fn: ftree.Sum, Arg: "price"}}); err != nil {
		t.Fatal(err)
	}
	got := mustFlatten(t, fr)
	if got.Cardinality() != 1 {
		t.Fatalf("want single row, got %d", got.Cardinality())
	}
	if got.Tuples[0][0].Int() != 13 || got.Tuples[0][1].Int() != 40 {
		t.Errorf("count,sum = %v, want (13, 40)", got.Tuples[0])
	}
}

func TestGammaOnEmpty(t *testing.T) {
	fr, _ := pizzeriaARel(t)
	if err := fr.SelectConst("price", GT, iv(1000)); err != nil {
		t.Fatal(err)
	}
	if err := fr.Gamma("item", []ftree.AggField{{Fn: ftree.Sum, Arg: "price"}}); err != nil {
		t.Fatal(err)
	}
	if !fr.IsEmpty() {
		t.Error("γ over the empty relation stays empty")
	}
	if err := fr.Check(); err != nil {
		t.Error(err)
	}
}

func TestGammaInvalidComposition(t *testing.T) {
	fr, _ := pizzeriaARel(t)
	if err := fr.Gamma("item", []ftree.AggField{{Fn: ftree.Min, Arg: "price"}}); err != nil {
		t.Fatal(err)
	}
	// Counting over a min aggregate is invalid (Proposition 2).
	if err := fr.Gamma("pizza", []ftree.AggField{{Fn: ftree.Count}}); err == nil {
		t.Error("count over min aggregate should fail")
	}
	// CanGamma agrees.
	if err := CanGamma(fr.Tree.Roots[0], []ftree.AggField{{Fn: ftree.Count}}); err == nil {
		t.Error("CanGamma should reject count over min aggregate")
	}
	// min over min is fine.
	if err := CanGamma(fr.Tree.Roots[0], []ftree.AggField{{Fn: ftree.Min, Arg: "price"}}); err != nil {
		t.Errorf("min over min should compose: %v", err)
	}
}

func TestRenameAtomic(t *testing.T) {
	fr, _ := pizzeriaARel(t)
	if err := fr.Rename("customer", "guest"); err != nil {
		t.Fatal(err)
	}
	if fr.Tree.AttrNode("guest") == nil || fr.Tree.AttrNode("customer") != nil {
		t.Error("atomic rename failed")
	}
	if err := fr.Rename("nope", "x"); err == nil {
		t.Error("renaming unknown attribute should fail")
	}
}

// The central differential property: a random pipeline of swaps and
// selections preserves the represented relation exactly.
func TestRandomOpPipelineProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		attrs := []string{"a", "b", "c", "d"}
		n := 1 + rng.Intn(40)
		ts := make([]relation.Tuple, n)
		for i := range ts {
			tp := make(relation.Tuple, len(attrs))
			for j := range tp {
				tp[j] = iv(int64(rng.Intn(4)))
			}
			ts[i] = tp
		}
		rel := relation.MustNew("R", attrs, ts).Dedup()
		f := ftree.New()
		f.NewRelationPath(attrs...)
		fr, err := FromRelationStore(frep.NewStore(), rel, f)
		if err != nil {
			return false
		}
		ref := rel
		for step := 0; step < 12; step++ {
			switch rng.Intn(3) {
			case 0, 1: // swap a random non-root node
				nodes := fr.Tree.Nodes()
				nd := nodes[rng.Intn(len(nodes))]
				if nd.Parent == nil {
					continue
				}
				if err := fr.Swap(nd.Attrs[0]); err != nil {
					return false
				}
			case 2: // selection with constant
				attr := attrs[rng.Intn(len(attrs))]
				c := iv(int64(rng.Intn(4)))
				op := []CmpOp{EQ, NE, LT, LE, GT, GE}[rng.Intn(6)]
				if err := fr.SelectConst(attr, op, c); err != nil {
					return false
				}
				col := ref.ColIndex(attr)
				ref = ref.Select(func(tp relation.Tuple) bool {
					return op.Holds(tp[col], c)
				})
			}
			if err := fr.Check(); err != nil {
				t.Logf("seed %d: invariant violation: %v", seed, err)
				return false
			}
			flat, err := fr.Flatten()
			if err != nil {
				return false
			}
			if !relation.EqualAsSets(flat, ref) {
				t.Logf("seed %d step %d: semantics diverged", seed, step)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Aggregation differential property: γ over a random subtree matches
// relational grouping.
func TestGammaMatchesRelationalProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		attrs := []string{"a", "b", "c"}
		n := 1 + rng.Intn(30)
		ts := make([]relation.Tuple, n)
		for i := range ts {
			ts[i] = relation.Tuple{iv(int64(rng.Intn(3))), iv(int64(rng.Intn(3))), iv(int64(rng.Intn(5)))}
		}
		rel := relation.MustNew("R", attrs, ts).Dedup()
		f := ftree.New()
		f.NewRelationPath("a", "b", "c")
		fr, err := FromRelationStore(frep.NewStore(), rel, f)
		if err != nil {
			return false
		}
		// γ over the subtree rooted at b: group by a, aggregate (b,c).
		if err := fr.Gamma("b", []ftree.AggField{
			{Fn: ftree.Count},
			{Fn: ftree.Sum, Arg: "c"},
			{Fn: ftree.Min, Arg: "c"},
			{Fn: ftree.Max, Arg: "b"},
		}); err != nil {
			return false
		}
		flat, err := fr.Flatten()
		if err != nil {
			return false
		}
		// Reference aggregation.
		type acc struct {
			cnt, sum, min, maxb int64
		}
		ref := map[int64]*acc{}
		for _, tp := range rel.Tuples {
			a, bb, c := tp[0].Int(), tp[1].Int(), tp[2].Int()
			g := ref[a]
			if g == nil {
				g = &acc{min: 1 << 62, maxb: -(1 << 62)}
				ref[a] = g
			}
			g.cnt++
			g.sum += c
			if c < g.min {
				g.min = c
			}
			if bb > g.maxb {
				g.maxb = bb
			}
		}
		if flat.Cardinality() != len(ref) {
			return false
		}
		// Multi-field aggregate nodes flatten to one column per field.
		for _, tp := range flat.Tuples {
			g := ref[tp[0].Int()]
			if g == nil {
				return false
			}
			if tp[1].Int() != g.cnt || tp[2].Int() != g.sum ||
				tp[3].Int() != g.min || tp[4].Int() != g.maxb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestProductEmptySide(t *testing.T) {
	a := relation.MustNew("A", []string{"x"}, []relation.Tuple{{iv(1)}})
	b := relation.MustNew("B", []string{"y"}, nil)
	fa, fb := ftree.New(), ftree.New()
	fa.NewRelationPath("x")
	fb.NewRelationPath("y")
	frA, _ := FromRelationStoreUnchecked(frep.NewStore(), a, fa)
	frB, _ := FromRelationStoreUnchecked(frep.NewStore(), b, fb)
	fr := Product(frA, frB)
	if !fr.IsEmpty() {
		t.Error("product with empty side should be empty")
	}
	if err := fr.Check(); err != nil {
		t.Error(err)
	}
}
