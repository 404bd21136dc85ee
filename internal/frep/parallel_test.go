package frep

import (
	"math/rand"
	"testing"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

func TestSegments(t *testing.T) {
	for _, c := range []struct{ n, p, want int }{
		{0, 4, 0}, {1, 4, 1}, {3, 4, 3}, {4, 4, 4},
		{10, 3, 3}, {10, 1, 1}, {10, 0, 1}, {7, 7, 7},
	} {
		segs := Segments(c.n, c.p)
		if len(segs) != c.want {
			t.Fatalf("Segments(%d,%d) = %d windows, want %d", c.n, c.p, len(segs), c.want)
		}
		next := 0
		for _, sg := range segs {
			if sg[0] != next || sg[1] <= sg[0] {
				t.Fatalf("Segments(%d,%d): bad window %v after %d", c.n, c.p, sg, next)
			}
			next = sg[1]
		}
		if c.n > 0 && next != c.n {
			t.Fatalf("Segments(%d,%d) covers [0,%d)", c.n, c.p, next)
		}
	}
}

func TestViewOf(t *testing.T) {
	s := NewStore()
	leafA := s.AddLeaf([]values.Value{values.NewInt(10)})
	leafB := s.AddLeaf([]values.Value{values.NewInt(20)})
	leafC := s.AddLeaf([]values.Value{values.NewInt(30)})
	root := s.Add(
		[]values.Value{values.NewInt(1), values.NewInt(2), values.NewInt(3)},
		1, []NodeID{leafA, leafB, leafC})
	if got := s.ViewOf(root, 0, 3); got != root {
		t.Fatalf("whole-window view = %d, want the node itself (%d)", got, root)
	}
	if got := s.ViewOf(root, 2, 2); got != EmptyNode {
		t.Fatalf("empty-window view = %d, want EmptyNode", got)
	}
	v := s.ViewOf(root, 1, 3)
	if s.Len(v) != 2 || s.Arity(v) != 1 {
		t.Fatalf("view len/arity = %d/%d, want 2/1", s.Len(v), s.Arity(v))
	}
	if s.Val(v, 0).Int() != 2 || s.Val(v, 1).Int() != 3 {
		t.Fatalf("view values = %v, %v", s.Val(v, 0), s.Val(v, 1))
	}
	if s.Kid(v, 0, 0) != leafB || s.Kid(v, 1, 0) != leafC {
		t.Fatal("view kid rows do not alias the original windows")
	}
}

// TestOverlayAdopt builds structure in two overlays referencing shared
// base nodes, adopts both, and checks the remapped structure reads
// identically from the base store.
func TestOverlayAdopt(t *testing.T) {
	base := NewStore()
	shared := base.AddLeaf([]values.Value{values.NewInt(7), values.NewInt(9)})

	type built struct {
		o    *Store
		root NodeID
	}
	var parts []built
	for w := 0; w < 3; w++ {
		o := base.Overlay()
		priv := o.AddLeaf([]values.Value{values.NewInt(int64(100 + w))})
		// A root mixing a base reference, a private node and a view of a
		// base node.
		view := o.ViewOf(shared, 1, 2)
		root := o.Add(
			[]values.Value{values.NewInt(1), values.NewInt(2), values.NewInt(3)},
			1, []NodeID{shared, priv, view})
		parts = append(parts, built{o, root})
	}
	for w, pt := range parts {
		remap := base.AdoptOverlay(pt.o)
		root := remap(pt.root)
		if base.Len(root) != 3 || base.Arity(root) != 1 {
			t.Fatalf("w%d: adopted root len/arity = %d/%d", w, base.Len(root), base.Arity(root))
		}
		if got := base.Kid(root, 0, 0); got != shared {
			t.Fatalf("w%d: base reference remapped to %d, want %d", w, got, shared)
		}
		if got := base.Val(base.Kid(root, 1, 0), 0).Int(); got != int64(100+w) {
			t.Fatalf("w%d: private leaf value = %d, want %d", w, got, 100+w)
		}
		kv := base.Kid(root, 2, 0)
		if base.Len(kv) != 1 || base.Val(kv, 0).Int() != 9 {
			t.Fatalf("w%d: view node reads wrong window after adoption", w)
		}
	}
}

// TestOverlayStaysPrivate: an overlay is a private append arena, so
// every operation that would let its two tiers leave it panics.
func TestOverlayStaysPrivate(t *testing.T) {
	base := NewStore()
	base.AddLeaf([]values.Value{values.NewInt(1)})
	ov := base.Overlay()
	ov.AddLeaf([]values.Value{values.NewInt(2)})
	for name, op := range map[string]func(){
		"Snapshot of":  func() { ov.Snapshot() },
		"Graft from":   func() { NewStore().Graft(ov) },
		"Graft into":   func() { ov.Graft(NewStore()) },
		"CloneInto of": func() { ov.CloneInto(NewStore()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s an overlay did not panic", name)
				}
			}()
			op()
		}()
	}
}

// buildPathRep factorises a random two-attribute relation as a linear
// path into a fresh store.
func buildPathRep(t *testing.T, n int) (*ftree.Forest, *Store, []NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			values.NewInt(int64(rng.Intn(n / 2))),
			values.NewInt(int64(1 + rng.Intn(20))),
		}
	}
	rel, err := relation.New("R", []string{"a", "b"}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	f := ftree.New()
	f.NewRelationPath("a", "b")
	s := NewStore()
	roots, err := BuildStore(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	return f, s, roots
}

// TestRestrictConcat checks that windowed enumerations, drained in
// slot-0 iteration order, concatenate to exactly the full stream — for
// ascending and descending outer orders.
func TestRestrictConcat(t *testing.T) {
	f, s, roots := buildPathRep(t, 3000)
	for _, desc := range []bool{false, true} {
		order := []OrderSpec{{Attr: "a", Desc: desc}}
		full, err := NewStoreEnumerator(f, s, roots, order)
		if err != nil {
			t.Fatal(err)
		}
		var want []relation.Tuple
		for full.Next() {
			want = append(want, full.Tuple().Clone())
		}
		n := s.Len(roots[0])
		segs := Segments(n, 5)
		var got []relation.Tuple
		// Drain order: ascending segments for ASC, descending for DESC.
		idxs := make([]int, len(segs))
		for i := range idxs {
			if desc {
				idxs[i] = len(segs) - 1 - i
			} else {
				idxs[i] = i
			}
		}
		for _, w := range idxs {
			e, err := NewStoreEnumerator(f, s, roots, order)
			if err != nil {
				t.Fatal(err)
			}
			e.Restrict(segs[w][0], segs[w][1])
			for e.Next() {
				got = append(got, e.Tuple().Clone())
			}
		}
		if len(got) != len(want) {
			t.Fatalf("desc=%v: %d windowed tuples, want %d", desc, len(got), len(want))
		}
		for i := range want {
			if relation.Compare(want[i], got[i]) != 0 {
				t.Fatalf("desc=%v: tuple %d = %v, want %v", desc, i, got[i], want[i])
			}
		}
	}
}
