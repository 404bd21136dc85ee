package frep

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

func ivs(vs ...int64) []values.Value {
	out := make([]values.Value, len(vs))
	for i, v := range vs {
		out[i] = values.NewInt(v)
	}
	return out
}

func testRel(t testing.TB) (*relation.Relation, *ftree.Forest) {
	t.Helper()
	ts := []relation.Tuple{}
	for _, row := range [][3]int64{
		{1, 10, 100}, {1, 10, 200}, {1, 20, 100},
		{2, 10, 300}, {2, 30, 100}, {3, 30, 300},
	} {
		ts = append(ts, relation.Tuple{
			values.NewInt(row[0]), values.NewInt(row[1]), values.NewInt(row[2]),
		})
	}
	rel := relation.MustNew("R", []string{"a", "b", "c"}, ts)
	f := ftree.New()
	f.NewRelationPath("a", "b", "c")
	return rel, f
}

func TestStoreCloneAndSnapshot(t *testing.T) {
	rel, f := testRel(t)
	s := NewStore()
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	cl := s.Clone()
	snap := s.Snapshot()
	// Appends to any copy must not disturb the others: each copy gets a
	// node with different contents at the same id.
	added := s.AddLeaf(ivs(7, 8, 9))
	clAdded := cl.AddLeaf(ivs(1))
	snapAdded := snap.AddLeaf(ivs(2, 3))
	for _, st := range []*Store{cl, snap} {
		if !EqualStore(st, roots[0], s, roots[0]) {
			t.Fatal("copies diverged on shared prefix")
		}
	}
	if added != clAdded || added != snapAdded {
		t.Fatalf("appended ids diverged: %d/%d/%d", added, clAdded, snapAdded)
	}
	if s.Len(added) != 3 || cl.Len(clAdded) != 1 || snap.Len(snapAdded) != 2 {
		t.Fatalf("appended nodes leaked across copies: %d/%d/%d values",
			s.Len(added), cl.Len(clAdded), snap.Len(snapAdded))
	}
}

func TestStoreResetReusesSlabs(t *testing.T) {
	rel, f := testRel(t)
	s := NewStore()
	if _, err := BuildStoreUnchecked(s, rel, f); err != nil {
		t.Fatal(err)
	}
	nodes, vals, kids := s.MemStats()
	if nodes == 1 || vals == 0 || kids == 0 {
		t.Fatalf("expected populated slabs, got %d/%d/%d", nodes, vals, kids)
	}
	s.Reset()
	nodes, vals, kids = s.MemStats()
	if nodes != 1 || vals != 0 || kids != 0 {
		t.Fatalf("after Reset: %d/%d/%d, want 1/0/0", nodes, vals, kids)
	}
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckStoreInvariantsAll(f, s, roots); err != nil {
		t.Fatal(err)
	}
}

func TestStoreGraft(t *testing.T) {
	rel, f := testRel(t)
	a := NewStore()
	b := NewStore()
	aRoots, err := BuildStoreUnchecked(a, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	bRoots, err := BuildStoreUnchecked(b, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	remap := a.Graft(b)
	moved := remap(bRoots[0])
	if !EqualStore(a, moved, b, bRoots[0]) {
		t.Fatal("grafted subtree differs from source")
	}
	if !EqualStore(a, moved, a, aRoots[0]) {
		t.Fatal("grafted subtree differs from equivalent native build")
	}
}

func TestStoreEmptyNode(t *testing.T) {
	s := NewStore()
	if got := s.Add(nil, 3, nil); got != EmptyNode {
		t.Fatalf("Add of no values = %d, want EmptyNode", got)
	}
	if s.Len(EmptyNode) != 0 || s.Arity(EmptyNode) != 0 {
		t.Fatal("EmptyNode must have no values and arity 0")
	}
}

// TestBuildStoreIntSortMatchesStable: the radix sort of all-Int columns
// builds a store byte-identical to the one sort.Stable builds, over
// shuffled rows with duplicates, a full-range key column, a column that
// mixes Int and Float, and an f-tree with two children.
func TestBuildStoreIntSortMatchesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ts []relation.Tuple
	for i := 0; i < 3000; i++ {
		c := values.NewInt(int64(rng.Intn(7)))
		if i%5 == 0 {
			c = values.NewFloat(float64(rng.Intn(7)) + 0.5)
		}
		ts = append(ts, relation.Tuple{
			values.NewInt(int64(rng.Intn(40) - 20)),
			values.NewInt(rng.Int63() - rng.Int63()),
			c,
		})
	}
	rel := relation.MustNew("R", []string{"a", "b", "c"}, ts)
	paths := map[string]func(*ftree.Forest){
		"path": func(f *ftree.Forest) { f.NewRelationPath("a", "b", "c") },
		"fork": func(f *ftree.Forest) {
			tok := f.NewToken()
			a := &ftree.Node{Attrs: []string{"a"}, Deps: ftree.NewTokenSet(tok)}
			for _, attr := range []string{"b", "c"} {
				c := &ftree.Node{Attrs: []string{attr}, Deps: ftree.NewTokenSet(tok), Parent: a}
				a.Children = append(a.Children, c)
			}
			f.Roots = append(f.Roots, a)
		},
	}
	for name, mk := range paths {
		var snaps [2][]byte
		for i, on := range []bool{true, false} {
			old := EnableKernels
			EnableKernels = on
			f := ftree.New()
			mk(f)
			st := NewStore()
			if _, err := BuildStoreUnchecked(st, rel, f); err != nil {
				t.Fatal(err)
			}
			EnableKernels = old
			b, err := st.SnapshotBytes()
			if err != nil {
				t.Fatal(err)
			}
			snaps[i] = b
		}
		if !bytes.Equal(snaps[0], snaps[1]) {
			t.Fatalf("%s: the kernel sort built a different store", name)
		}
	}
}
