package fops

// Relation-anchored checks of the operators on cases the semantic suite
// in fops_test.go does not reach: every selection operator kind on
// every level of the pizzeria f-tree, γ composed over stored aggregate
// vectors, projection of leaves from two branches, absorb at both
// depths, and the Product + Merge + Swap cascade the engine's join path
// and the workload's view R1 are built with. Each result must satisfy
// the representation invariants and flatten to what the same operation
// yields on the flat relation; over a fixed f-tree the factorisation of
// a relation is unique, so that pins the structure too.

import (
	"testing"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

func TestARelSelectConstCases(t *testing.T) {
	for _, tc := range []struct {
		attr string
		op   CmpOp
		c    values.Value
	}{
		{"price", LE, iv(2)},
		{"item", EQ, sv("ham")},
		{"customer", NE, sv("Mario")},
		{"pizza", GT, sv("Capricciosa")},
		{"date", GE, sv("Monday")},
		{"price", LT, iv(6)},
		{"price", GT, iv(99)}, // empties the relation
	} {
		ar, r := pizzeriaARel(t)
		if err := ar.SelectConst(tc.attr, tc.op, tc.c); err != nil {
			t.Fatal(err)
		}
		col := r.ColIndex(tc.attr)
		want := r.Select(func(tp relation.Tuple) bool { return tc.op.Holds(tp[col], tc.c) })
		if !relation.EqualAsSets(mustFlatten(t, ar), want) {
			t.Errorf("σ(%s%s%v) differs from the flat selection", tc.attr, tc.op, tc.c)
		}
		if ar.IsEmpty() != (want.Cardinality() == 0) {
			t.Errorf("σ(%s%s%v): IsEmpty = %v with %d flat rows", tc.attr, tc.op, tc.c, ar.IsEmpty(), want.Cardinality())
		}
	}
}

func TestARelSwapSequencePreservesRelation(t *testing.T) {
	ar, r := pizzeriaARel(t)
	for _, attr := range []string{"date", "pizza", "item"} {
		if err := ar.Swap(attr); err != nil {
			t.Fatal(err)
		}
		if !relation.EqualAsSets(mustFlatten(t, ar), r) {
			t.Fatalf("swap(%s) changed the represented relation", attr)
		}
		if ar.Tree.Roots[0].Label() != attr {
			t.Fatalf("swap(%s): root is %s", attr, ar.Tree.Roots[0].Label())
		}
	}
}

// TestARelGammaComposesOverVectors aggregates the item subtree into a
// (sum, count) vector, then counts over the date subtree, and checks
// both stored aggregates against per-pizza folds of the flat relation.
func TestARelGammaComposesOverVectors(t *testing.T) {
	ar, r := pizzeriaARel(t)
	if err := ar.Gamma("item", []ftree.AggField{{Fn: ftree.Sum, Arg: "price"}, {Fn: ftree.Count}}); err != nil {
		t.Fatal(err)
	}
	if err := ar.Gamma("date", []ftree.AggField{{Fn: ftree.Count}}); err != nil {
		t.Fatal(err)
	}
	// Per pizza: distinct (date, customer) pairs, and the sum and count
	// of its distinct (item, price) pairs.
	type agg struct {
		orders, items map[string]bool
		sum           int64
	}
	ref := map[string]*agg{}
	pi, di, ci, ii, pr := r.ColIndex("pizza"), r.ColIndex("date"), r.ColIndex("customer"), r.ColIndex("item"), r.ColIndex("price")
	for _, tp := range r.Tuples {
		g := ref[tp[pi].Str()]
		if g == nil {
			g = &agg{orders: map[string]bool{}, items: map[string]bool{}}
			ref[tp[pi].Str()] = g
		}
		g.orders[tp[di].Str()+"|"+tp[ci].Str()] = true
		if !g.items[tp[ii].Str()] {
			g.items[tp[ii].Str()] = true
			g.sum += tp[pr].Int()
		}
	}
	flat := mustFlatten(t, ar)
	if flat.Cardinality() != len(ref) {
		t.Fatalf("%d rows, want one per pizza (%d)", flat.Cardinality(), len(ref))
	}
	// Flat schema: pizza, count(date,customer), then the vector's fields.
	for _, tp := range flat.Tuples {
		g := ref[tp[0].Str()]
		if g == nil || tp[1].Int() != int64(len(g.orders)) || tp[2].Int() != g.sum || tp[3].Int() != int64(len(g.items)) {
			t.Errorf("row %v, want orders=%d sum=%d items=%d", tp, len(g.orders), g.sum, len(g.items))
		}
	}
}

func TestARelRemoveLeavesFromBothBranches(t *testing.T) {
	ar, r := pizzeriaARel(t)
	keep := []string{"pizza", "date", "customer", "item", "price"}
	for _, attr := range []string{"price", "customer"} {
		if err := ar.RemoveLeaf(attr); err != nil {
			t.Fatal(err)
		}
		for i, a := range keep {
			if a == attr {
				keep = append(keep[:i], keep[i+1:]...)
				break
			}
		}
		want, err := r.Project(keep...)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.EqualAsSets(mustFlatten(t, ar), want) {
			t.Fatalf("π-(%s) differs from the flat projection", attr)
		}
	}
}

// TestARelProductMergeCascade joins the three pizzeria base relations
// bottom-up — Product, merge at the roots, swap the join attribute up,
// merge again — the way the engine's Exec path and the workload's R1
// build do, checking each step against the flat join so far.
func TestARelProductMergeCascade(t *testing.T) {
	s := frep.NewStore()
	mk := func(rel *relation.Relation, attrs ...string) *ARel {
		f := ftree.New()
		f.NewRelationPath(attrs...)
		ar, err := FromRelationStoreUnchecked(s, rel, f)
		if err != nil {
			t.Fatal(err)
		}
		return ar
	}
	// Rename the join copies so attributes stay globally unique.
	pz := relation.MustNew("Pizzas", []string{"pizza2", "item"}, pizzasRel().Tuples)
	it := relation.MustNew("Items", []string{"item2", "price"}, itemsRel().Tuples)
	ar := Product(Product(mk(ordersRel(), "pizza", "date", "customer"), mk(pz, "item", "pizza2")), mk(it, "item2", "price"))
	if got, want := mustFlatten(t, ar).Cardinality(), 5*7*4; got != want {
		t.Fatalf("product has %d tuples, want %d", got, want)
	}

	eq := func(a, b string) func(*relation.Relation) *relation.Relation {
		return func(r *relation.Relation) *relation.Relation {
			i, j := r.ColIndex(a), r.ColIndex(b)
			return r.Select(func(tp relation.Tuple) bool { return values.Compare(tp[i], tp[j]) == 0 })
		}
	}
	want := mustFlatten(t, ar) // the flat Cartesian product, narrowed step by step
	for _, step := range []struct {
		name   string
		apply  func() error
		narrow func(*relation.Relation) *relation.Relation
	}{
		{"merge(item=item2)", func() error { return ar.Merge("item", "item2") }, eq("item", "item2")},
		{"swap(pizza2)", func() error { return ar.Swap("pizza2") }, func(r *relation.Relation) *relation.Relation { return r }},
		{"merge(pizza2=pizza)", func() error { return ar.Merge("pizza2", "pizza") }, eq("pizza2", "pizza")},
	} {
		if err := step.apply(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		want = step.narrow(want)
		if !relation.EqualAsSets(mustFlatten(t, ar), want) {
			t.Fatalf("%s differs from the flat selection", step.name)
		}
	}
	if want.Cardinality() != 13 {
		t.Fatalf("cascade ends with %d tuples, the pizzeria join has 13", want.Cardinality())
	}
}

// TestARelAbsorbDepths absorbs a grandchild and a direct child into
// their ancestor.
func TestARelAbsorbDepths(t *testing.T) {
	rel := relation.MustNew("R", []string{"a", "b", "c"}, []relation.Tuple{
		{iv(1), iv(1), iv(1)},
		{iv(1), iv(2), iv(1)},
		{iv(2), iv(2), iv(2)},
		{iv(3), iv(1), iv(3)},
		{iv(3), iv(3), iv(1)},
	})
	for _, desc := range []string{"c", "b"} {
		f := ftree.New()
		f.NewRelationPath("a", "b", "c")
		ar, err := FromRelationStoreUnchecked(frep.NewStore(), rel, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := ar.Absorb("a", desc); err != nil {
			t.Fatal(err)
		}
		col := rel.ColIndex(desc)
		want := rel.Select(func(tp relation.Tuple) bool { return values.Compare(tp[0], tp[col]) == 0 })
		if !relation.EqualAsSets(mustFlatten(t, ar), want) {
			t.Errorf("absorb(a,%s) differs from σ(a=%s)", desc, desc)
		}
	}
}

func TestARelCloneAndSnapshotIsolation(t *testing.T) {
	ar, _ := pizzeriaARel(t)
	before := ar.Singletons()
	cl, _ := ar.Clone()
	snap := ar.Snapshot()
	if err := cl.SelectConst("price", LE, iv(1)); err != nil {
		t.Fatal(err)
	}
	if err := snap.SelectConst("item", EQ, sv("ham")); err != nil {
		t.Fatal(err)
	}
	if got := ar.Singletons(); got != before {
		t.Fatalf("original changed: %d -> %d singletons", before, got)
	}
	if cl.Singletons() >= before || snap.Singletons() >= before {
		t.Fatal("selections on copies had no effect")
	}
}
