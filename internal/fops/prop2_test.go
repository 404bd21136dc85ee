package fops

// Direct verification of Proposition 2 (Section 3.1), the composition
// rules for aggregation operators, on factorised data: evaluating a
// decomposed sequence of γ operators must produce exactly the same
// factorised relation as the single direct γ.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// buildChain builds a random relation over (a,b,c,d) factorised as the
// linear path a→b→c→d.
func buildChain(rng *rand.Rand) (*ARel, error) {
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
	return FromRelationStore(frep.NewStore(), rel, f)
}

// flattenOf returns the flattened relation for comparison.
func flattenOf(t *testing.T, fr *ARel) *relation.Relation {
	t.Helper()
	flat, err := fr.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

// Rule 1: γ_F(U) ∘ γ_F(V) = γ_F(U) for V ⊆ U, for F ∈ {count, min, max}
// and for sum when the argument is in V.
func TestProp2NestedComposition(t *testing.T) {
	fieldSets := [][]ftree.AggField{
		{{Fn: ftree.Count}},
		{{Fn: ftree.Min, Arg: "d"}},
		{{Fn: ftree.Max, Arg: "d"}},
		{{Fn: ftree.Sum, Arg: "d"}},
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fields := fieldSets[rng.Intn(len(fieldSets))]
		direct, err := buildChain(rng)
		if err != nil {
			return false
		}
		decomposed, _ := direct.Clone()

		// Direct: γ over the subtree rooted at b (V=U case uses c ⊂ b).
		if err := direct.Gamma("b", fields); err != nil {
			return false
		}
		// Decomposed: first γ over the subtree rooted at c (V ⊂ U), then
		// γ over the subtree rooted at b.
		if err := decomposed.Gamma("c", fields); err != nil {
			return false
		}
		if err := decomposed.Gamma("b", fields); err != nil {
			return false
		}
		a, err := direct.Flatten()
		if err != nil {
			return false
		}
		b, err := decomposed.Flatten()
		if err != nil {
			return false
		}
		// Output column names differ (different Over sets), so align by
		// position: (a, aggregate).
		if a.Cardinality() != b.Cardinality() {
			return false
		}
		av := relation.MustNew("A", []string{"a", "v"}, a.Tuples)
		bv := relation.MustNew("B", []string{"a", "v"}, b.Tuples)
		return relation.EqualAsSets(av, bv)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Rule 2: γ_sumA(U) ∘ γ_count(V) = γ_sumA(U) for V ⊆ U with A ∉ V.
func TestProp2SumOverCount(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		direct, err := buildChain(rng)
		if err != nil {
			return false
		}
		decomposed, _ := direct.Clone()

		// sum(b) over the subtree rooted at b: V = {c,d}? A=b ∉ V: count
		// the (c,d) part first, then sum.
		sumB := []ftree.AggField{{Fn: ftree.Sum, Arg: "b"}}
		if err := direct.Gamma("b", sumB); err != nil {
			return false
		}
		if err := decomposed.Gamma("c", []ftree.AggField{{Fn: ftree.Count}}); err != nil {
			return false
		}
		if err := decomposed.Gamma("b", sumB); err != nil {
			return false
		}
		a, err := direct.Flatten()
		if err != nil {
			return false
		}
		b, err := decomposed.Flatten()
		if err != nil {
			return false
		}
		av := relation.MustNew("A", []string{"a", "v"}, a.Tuples)
		bv := relation.MustNew("B", []string{"a", "v"}, b.Tuples)
		return relation.EqualAsSets(av, bv)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Rule 3: disjoint aggregates commute: γ_F(U) ∘ γ_G(V) = γ_G(V) ∘ γ_F(U)
// for U ∩ V = ∅.
func TestProp2DisjointCommute(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Tree with two disjoint subtrees under the root: a → {b, c→d}.
		n := 1 + rng.Intn(40)
		ts := make([]relation.Tuple, n)
		for i := range ts {
			ts[i] = relation.Tuple{
				iv(int64(rng.Intn(3))), iv(int64(rng.Intn(4))),
				iv(int64(rng.Intn(4))), iv(int64(rng.Intn(4))),
			}
		}
		rel := relation.MustNew("R", []string{"a", "b", "c", "d"}, ts).Dedup()
		f := ftree.New()
		f.NewRelationPath("a", "b", "c", "d")
		fr, err := FromRelationStore(frep.NewStore(), rel, f)
		if err != nil {
			return false
		}
		// Restructure to a → {b, c → d}: swap c above... simpler: keep
		// the chain and use the disjoint subtrees {d} under c and {b}…
		// {b}'s subtree contains c and d. Instead aggregate the leaf d
		// and, separately, construct the sibling shape via a swap of c.
		// Use subtrees U = {d} (leaf) and V = … not disjoint on a chain;
		// swap d up to make b → {c, d} siblings? Simply: swap c with b:
		// a → c → {b?…}. To keep this robust we factorise over the
		// sibling tree directly when valid.
		fb, err := buildSibling(rel)
		if err != nil {
			// Sibling decomposition invalid for this relation (b and
			// (c,d) dependent): skip.
			return true
		}
		_ = fr
		one, _ := fb.Clone()
		two, _ := fb.Clone()
		fU := []ftree.AggField{{Fn: ftree.Count}}
		fV := []ftree.AggField{{Fn: ftree.Sum, Arg: "d"}}
		if err := one.Gamma("b", fU); err != nil {
			return false
		}
		if err := one.Gamma("c", fV); err != nil {
			return false
		}
		if err := two.Gamma("c", fV); err != nil {
			return false
		}
		if err := two.Gamma("b", fU); err != nil {
			return false
		}
		a1, err := one.Flatten()
		if err != nil {
			return false
		}
		a2, err := two.Flatten()
		if err != nil {
			return false
		}
		// Column order differs (b-agg and c-agg swap places); compare as
		// sets after aligning by attribute names.
		return relation.EqualAsSets(a1, a2)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// buildSibling factorises rel over a → {b, c → d}, which requires b ⟂
// (c,d) given a; returns an error when the data does not satisfy it.
func buildSibling(rel *relation.Relation) (*ARel, error) {
	// Make the decomposition valid by construction: replace rel with
	// π_{a,b}(rel) ⋈ π_{a,c,d}(rel).
	ab, err := rel.Project("a", "b")
	if err != nil {
		return nil, err
	}
	acd, err := rel.Project("a", "c", "d")
	if err != nil {
		return nil, err
	}
	j := relation.NaturalJoin(ab, acd)
	f := ftree.New()
	t1, t2 := f.NewToken(), f.NewToken()
	a := &ftree.Node{Attrs: []string{"a"}, Deps: ftree.NewTokenSet(t1, t2)}
	b := &ftree.Node{Attrs: []string{"b"}, Deps: ftree.NewTokenSet(t1), Parent: a}
	c := &ftree.Node{Attrs: []string{"c"}, Deps: ftree.NewTokenSet(t2), Parent: a}
	d := &ftree.Node{Attrs: []string{"d"}, Deps: ftree.NewTokenSet(t2), Parent: c}
	a.Children = []*ftree.Node{b, c}
	c.Children = []*ftree.Node{d}
	f.Roots = []*ftree.Node{a}
	return FromRelationStore(frep.NewStore(), j, f)
}

// The γ operator and the relational ϖ agree on every subtree of a chain
// (grouping by the path above the subtree).
func TestGammaSubtreeChoicesProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fr, err := buildChain(rng)
		if err != nil {
			return false
		}
		target := []string{"b", "c", "d"}[rng.Intn(3)]
		fields := []ftree.AggField{{Fn: ftree.Count}, {Fn: ftree.Sum, Arg: "d"}}
		ref, err := fr.Flatten()
		if err != nil {
			return false
		}
		if err := fr.Gamma(target, fields); err != nil {
			return false
		}
		got, err := fr.Flatten()
		if err != nil {
			return false
		}
		// Reference group-by over the attributes above target.
		var group []int
		switch target {
		case "b":
			group = []int{0}
		case "c":
			group = []int{0, 1}
		case "d":
			group = []int{0, 1, 2}
		}
		type acc struct{ cnt, sum int64 }
		refAgg := map[string]*acc{}
		var kb []byte
		for _, tp := range ref.Tuples {
			kb = kb[:0]
			for _, g := range group {
				kb = tp[g].AppendKey(kb)
			}
			k := string(kb)
			if refAgg[k] == nil {
				refAgg[k] = &acc{}
			}
			refAgg[k].cnt++
			refAgg[k].sum += tp[3].Int()
		}
		if got.Cardinality() != len(refAgg) {
			return false
		}
		for _, tp := range got.Tuples {
			kb = kb[:0]
			for i := range group {
				kb = tp[i].AppendKey(kb)
			}
			g := refAgg[string(kb)]
			if g == nil {
				return false
			}
			// Multi-field aggregate nodes flatten to one column per field.
			if tp[len(group)].Int() != g.cnt || values.Compare(tp[len(group)+1], iv(g.sum)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
