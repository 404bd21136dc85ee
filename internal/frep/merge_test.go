package frep

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// buildLinear factorises tuples over the linear path of attrs into s.
func buildLinear(t *testing.T, s *Store, attrs []string, tuples []relation.Tuple) NodeID {
	t.Helper()
	rel, err := relation.New("R", attrs, tuples)
	if err != nil {
		t.Fatal(err)
	}
	f := ftree.New()
	f.NewRelationPath(attrs...)
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	return roots[0]
}

func randTuples(rng *rand.Rand, n, arity, domain int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		tp := make(relation.Tuple, arity)
		for j := range tp {
			tp[j] = values.NewInt(int64(rng.Intn(domain)))
		}
		out[i] = tp
	}
	return out
}

// dedupe sorts and removes full-tuple duplicates (set semantics).
func dedupe(ts []relation.Tuple) []relation.Tuple {
	sort.Slice(ts, func(i, j int) bool { return relation.Compare(ts[i], ts[j]) < 0 })
	out := ts[:0]
	for i, t := range ts {
		if i > 0 && relation.Compare(ts[i-1], t) == 0 {
			continue
		}
		out = append(out, t)
	}
	return out
}

// TestMergeLinearEqualsRebuild: merging two factorised batches must be
// structurally identical to factorising their union from scratch —
// across arities, overlaps and empty sides.
func TestMergeLinearEqualsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, arity := range []int{1, 2, 3, 4} {
		attrs := make([]string, arity)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%d", i)
		}
		for trial := 0; trial < 20; trial++ {
			na, nb := rng.Intn(40), rng.Intn(40)
			a := dedupe(randTuples(rng, na, arity, 8))
			b := dedupe(randTuples(rng, nb, arity, 8))

			s := NewStore()
			ra := buildLinear(t, s, attrs, a)
			rb := buildLinear(t, s, attrs, b)
			merged := MergeLinear(s, ra, rb)

			union := dedupe(append(append([]relation.Tuple{}, a...), b...))
			ref := NewStore()
			rr := buildLinear(t, ref, attrs, union)

			if !EqualStore(s, merged, ref, rr) {
				t.Fatalf("arity %d trial %d: merge of %d+%d tuples differs from rebuild of %d",
					arity, trial, len(a), len(b), len(union))
			}
		}
	}
}

// TestMergeLinearEmptySides: EmptyNode is the identity.
func TestMergeLinearEmptySides(t *testing.T) {
	s := NewStore()
	r := buildLinear(t, s, []string{"x", "y"}, []relation.Tuple{
		{values.NewInt(1), values.NewInt(2)},
	})
	if got := MergeLinear(s, EmptyNode, r); got != r {
		t.Fatalf("merge(empty, r) = %d, want %d", got, r)
	}
	if got := MergeLinear(s, r, EmptyNode); got != r {
		t.Fatalf("merge(r, empty) = %d, want %d", got, r)
	}
	if got := MergeLinear(s, EmptyNode, EmptyNode); got != EmptyNode {
		t.Fatal("merge(empty, empty) != empty")
	}
}

// TestRemoveTuplesEqualsRebuild: removing a random subset must be
// structurally identical to factorising the survivors from scratch,
// including removing everything (EmptyNode) and removing nothing.
func TestRemoveTuplesEqualsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, arity := range []int{1, 2, 3} {
		attrs := make([]string, arity)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%d", i)
		}
		for trial := 0; trial < 20; trial++ {
			all := dedupe(randTuples(rng, 30+rng.Intn(30), arity, 6))
			var doomed, kept []relation.Tuple
			for _, tp := range all {
				if rng.Intn(3) == 0 {
					doomed = append(doomed, tp)
				} else {
					kept = append(kept, tp)
				}
			}
			s := NewStore()
			root := buildLinear(t, s, attrs, all)
			tombs := make([][]values.Value, len(doomed))
			for i, tp := range doomed {
				tombs[i] = tp
			}
			sort.Slice(tombs, func(i, j int) bool {
				return relation.Compare(tombs[i], tombs[j]) < 0
			})
			got := RemoveTuples(s, root, tombs)

			ref := NewStore()
			want := buildLinear(t, ref, attrs, kept)
			if !EqualStore(s, got, ref, want) {
				t.Fatalf("arity %d trial %d: remove %d of %d differs from rebuild",
					arity, trial, len(doomed), len(all))
			}
		}
	}
}

// TestRemoveTuplesAbsentAndUnchanged: tombstones for absent tuples are
// ignored, and a no-op removal returns the original node (sharing, not
// copying).
func TestRemoveTuplesAbsentAndUnchanged(t *testing.T) {
	s := NewStore()
	root := buildLinear(t, s, []string{"x", "y"}, []relation.Tuple{
		{values.NewInt(1), values.NewInt(10)},
		{values.NewInt(2), values.NewInt(20)},
	})
	absent := [][]values.Value{
		{values.NewInt(1), values.NewInt(99)},
		{values.NewInt(3), values.NewInt(30)},
	}
	if got := RemoveTuples(s, root, absent); got != root {
		t.Fatalf("no-op removal rebuilt the root: %d != %d", got, root)
	}
	if got := RemoveTuples(s, root, nil); got != root {
		t.Fatal("empty tombstone set changed the root")
	}
}

// TestRemoveTuplesAll: removing every tuple collapses to EmptyNode.
func TestRemoveTuplesAll(t *testing.T) {
	s := NewStore()
	tuples := []relation.Tuple{
		{values.NewInt(1), values.NewInt(10)},
		{values.NewInt(2), values.NewInt(20)},
	}
	root := buildLinear(t, s, []string{"x", "y"}, tuples)
	tombs := [][]values.Value{tuples[0], tuples[1]}
	if got := RemoveTuples(s, root, tombs); got != EmptyNode {
		t.Fatalf("removing all tuples left node %d", got)
	}
}

// TestMergeIntoOverlay: the write path's exact shape — base store
// frozen, batches built and merged inside an overlay — must equal a
// from-scratch build, and copying out the merged root's reachable nodes
// must reproduce that build's snapshot byte for byte (the catalogue form
// a write publishes and compaction writes).
func TestMergeIntoOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	attrs := []string{"x", "y", "z"}
	base := dedupe(randTuples(rng, 50, 3, 10))

	bs := NewStore()
	root := buildLinear(t, bs, attrs, base)

	ov := bs.Overlay()
	cur := root
	all := append([]relation.Tuple{}, base...)
	for batch := 0; batch < 5; batch++ {
		add := dedupe(randTuples(rng, 10, 3, 10))
		// Keep only tuples not already present, as the write path does.
		var fresh []relation.Tuple
		for _, tp := range add {
			found := false
			for _, ex := range all {
				if relation.Compare(tp, ex) == 0 {
					found = true
					break
				}
			}
			if !found {
				fresh = append(fresh, tp)
			}
		}
		if len(fresh) == 0 {
			continue
		}
		br := buildLinear(t, ov, attrs, fresh)
		cur = MergeLinear(ov, cur, br)
		all = append(all, fresh...)
	}
	all = dedupe(all)

	ref := NewStore()
	want := buildLinear(t, ref, attrs, all)
	if !EqualStore(ov, cur, ref, want) {
		t.Fatal("overlay-merged factorisation differs from from-scratch rebuild")
	}
	live, roots := ov.CopyReachable([]NodeID{cur})
	if roots[0] != want {
		t.Fatalf("copied root %d, from-scratch root %d", roots[0], want)
	}
	for _, st := range []*Store{live, ref} {
		if err := st.BuildRanks(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := live.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := ref.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantB) {
		t.Fatal("copied overlay factorisation's snapshot differs from a from-scratch build's")
	}
	if n, v, k := live.MemStats(); cap(live.nodes) != n || cap(live.vals) != v || cap(live.kids) != k {
		t.Fatalf("copy slabs sized %d/%d/%d for %d/%d/%d entries", cap(live.nodes), cap(live.vals), cap(live.kids), n, v, k)
	}
}
