package frep

// Relation-anchored checks of the arena store: what a build represents,
// enumerates, aggregates and flattens to is compared with the flat
// relation it was built from — sorted, deduplicated relational
// semantics — rather than with another representation of it.

import (
	"testing"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// buildTestStore factorises testRel over its linear path a→b→c.
func buildTestStore(t testing.TB) (*relation.Relation, *ftree.Forest, *Store, []NodeID) {
	t.Helper()
	rel, f := testRel(t)
	s := NewStore()
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckStoreInvariantsAll(f, s, roots); err != nil {
		t.Fatal(err)
	}
	return rel, f, s, roots
}

// sortedCopy returns rel's distinct tuples sorted by keys, ties broken
// by the full tuple (relation.Sort's rule — the order an enumeration
// takes below its ordered attributes).
func sortedCopy(t testing.TB, rel *relation.Relation, keys ...relation.OrderKey) []relation.Tuple {
	t.Helper()
	out := rel.Dedup()
	if err := out.Sort(keys...); err != nil {
		t.Fatal(err)
	}
	return out.Tuples
}

func sameRows(t *testing.T, what string, got, want []relation.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if relation.Compare(got[i], want[i]) != 0 {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestBuildStoreRepresentsRelation(t *testing.T) {
	rel, _, s, roots := buildTestStore(t)
	if got, want := s.CountPlain(roots[0]), int64(rel.Dedup().Cardinality()); got != want {
		t.Fatalf("CountPlain = %d, want %d", got, want)
	}
	// a: 3 values; b: 2+2+1 values; c: one leaf value per tuple.
	if got, want := s.SingletonsAll(roots), 3+5+6; got != want {
		t.Fatalf("Singletons = %d, want %d", got, want)
	}
}

func TestStoreEnumeratorMatchesSortedRelation(t *testing.T) {
	rel, f, s, roots := buildTestStore(t)
	for _, tc := range []struct {
		order []OrderSpec
		keys  []relation.OrderKey
	}{
		{nil, nil},
		{[]OrderSpec{{Attr: "a", Desc: true}, {Attr: "b"}},
			[]relation.OrderKey{{Attr: "a", Desc: true}, {Attr: "b"}}},
	} {
		se, err := NewStoreEnumerator(f, s, roots, tc.order)
		if err != nil {
			t.Fatal(err)
		}
		var got []relation.Tuple
		for se.Next() {
			got = append(got, se.Tuple().Clone())
		}
		sameRows(t, "enumeration", got, sortedCopy(t, rel, tc.keys...))
	}
}

func TestFlattenStoreMatchesSortedRelation(t *testing.T) {
	rel, f, s, roots := buildTestStore(t)
	flat, err := FlattenStore(f, s, roots)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "flatten", flat.Tuples, sortedCopy(t, rel))
}

// TestEvalStoreMatchesRelation folds the composite evaluator's fields
// directly over the flat tuples.
func TestEvalStoreMatchesRelation(t *testing.T) {
	rel, f, s, roots := buildTestStore(t)
	ev, err := NewEvaluator(f.Roots[0], []ftree.AggField{
		{Fn: ftree.Count},
		{Fn: ftree.Sum, Arg: "c"},
		{Fn: ftree.Min, Arg: "b"},
		{Fn: ftree.Max, Arg: "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.EvalStore(s, roots[0])
	if err != nil {
		t.Fatal(err)
	}
	var sum, minB, maxC values.Value
	for _, tp := range rel.Tuples {
		sum = values.Add(sum, tp[2])
		minB = values.Min(minB, tp[1])
		maxC = values.Max(maxC, tp[2])
	}
	want := []values.Value{values.NewInt(int64(rel.Cardinality())), sum, minB, maxC}
	for i := range want {
		if values.Compare(got[i], want[i]) != 0 {
			t.Fatalf("field %d = %v, want %v", i, got[i], want[i])
		}
	}
	n, err := CountStore(f.Roots[0], s, roots[0])
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(rel.Cardinality()) {
		t.Fatalf("CountStore = %d, want %d", n, rel.Cardinality())
	}
}

// TestStoreGroupEnumeratorMatchesRelation groups the flat tuples by a
// and compares count and sum(c) per group, in group order.
func TestStoreGroupEnumeratorMatchesRelation(t *testing.T) {
	rel, f, s, roots := buildTestStore(t)
	sg, err := NewStoreGroupEnumerator(f, s, roots, []OrderSpec{{Attr: "a"}},
		[]ftree.AggField{{Fn: ftree.Count}, {Fn: ftree.Sum, Arg: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	var got []relation.Tuple
	for {
		ok, err := sg.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, sg.Tuple().Clone())
	}
	var want []relation.Tuple
	for _, tp := range sortedCopy(t, rel) {
		if n := len(want); n == 0 || values.Compare(want[n-1][0], tp[0]) != 0 {
			want = append(want, relation.Tuple{tp[0], values.NewInt(0), values.Value{}})
		}
		g := want[len(want)-1]
		g[1] = values.Add(g[1], values.NewInt(1))
		g[2] = values.Add(g[2], tp[2])
	}
	sameRows(t, "groups", got, want)
}
