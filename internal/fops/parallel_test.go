package fops

// Parallel-operator suite: every rebuildAt-based operator must produce
// the same representation at Par=8 (overlay workers, adopt-in-order
// stitch) as at Par=1, compared by flattening. Run under -race in CI.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// buildARel factorises a random three-attribute relation (a, b, c) as a
// linear path; a and c share a domain so absorb has matches.
func buildARel(t *testing.T, n, par int) *ARel {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			values.NewInt(int64(rng.Intn(40))),
			values.NewInt(int64(rng.Intn(15))),
			values.NewInt(int64(rng.Intn(40))),
		}
	}
	rel, err := relation.New("R", []string{"a", "b", "c"}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	f := ftree.New()
	f.NewRelationPath("a", "b", "c")
	ar, err := FromRelationStore(frep.NewStore(), rel, f)
	if err != nil {
		t.Fatal(err)
	}
	ar.Par = par
	return ar
}

// diffFlat compares two arena relations by their flattened output.
func diffFlat(t *testing.T, step string, serial, parallel *ARel) {
	t.Helper()
	if err := parallel.Check(); err != nil {
		t.Fatalf("%s: parallel representation invalid: %v", step, err)
	}
	a, err := serial.Flatten()
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	b, err := parallel.Flatten()
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("%s: serial %d tuples, parallel %d", step, len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		if relation.Compare(a.Tuples[i], b.Tuples[i]) != 0 {
			t.Fatalf("%s: tuple %d: serial %v, parallel %v", step, i, a.Tuples[i], b.Tuples[i])
		}
	}
}

// TestParallelOpsMatchSerial drives the same operator sequence through
// a serial and a Par=8 relation, comparing after every step: select,
// mid-tree swap, absorb, remove, γ below the root and γ at the root.
func TestParallelOpsMatchSerial(t *testing.T) {
	old := MinParallelRebuildValues
	MinParallelRebuildValues = 1
	defer func() { MinParallelRebuildValues = old }()

	serial := buildARel(t, 4000, 1)
	parallel := buildARel(t, 4000, 8)

	step := func(name string, apply func(ar *ARel) error) {
		t.Helper()
		if err := apply(serial); err != nil {
			t.Fatalf("%s (serial): %v", name, err)
		}
		if err := apply(parallel); err != nil {
			t.Fatalf("%s (parallel): %v", name, err)
		}
		diffFlat(t, name, serial, parallel)
	}

	step("select", func(ar *ARel) error {
		return ar.SelectConst("b", GE, values.NewInt(3))
	})
	step("swap-mid", func(ar *ARel) error { return ar.Swap("b") })
	// Tree is now b→a→c: swap(b) exchanged b with its parent a; c stays
	// below a. Two more mid-tree swaps (c above a, then a back above c)
	// send every worker through a pooled scratch that an earlier
	// operator's workers already grew and returned.
	step("swap-mid-c", func(ar *ARel) error { return ar.Swap("c") })
	step("swap-mid-a", func(ar *ARel) error { return ar.Swap("a") })
	// Absorb a=c restricts each c to its ancestor a's value.
	step("absorb", func(ar *ARel) error { return ar.Absorb("a", "c") })
	step("gamma-below-root", func(ar *ARel) error {
		return ar.Gamma("a", []ftree.AggField{
			{Fn: ftree.Count},
			{Fn: ftree.Sum, Arg: "a"},
		})
	})
	step("gamma-at-root", func(ar *ARel) error {
		return ar.Gamma("b", []ftree.AggField{{Fn: ftree.Count}})
	})
}

// TestParallelRootGammaFloatSum: γ at a root is one occurrence, so it
// evaluates serially at any Par and a float SUM keeps the serial
// left-to-right rounding. 2⁵³ first absorbs every following 1.0; summing
// the 1.0s per segment first would not.
func TestParallelRootGammaFloatSum(t *testing.T) {
	oldV, oldW := MinParallelRebuildValues, MinParallelRebuildWork
	MinParallelRebuildValues, MinParallelRebuildWork = 1, 1
	defer func() { MinParallelRebuildValues, MinParallelRebuildWork = oldV, oldW }()

	tuples := []relation.Tuple{{values.NewInt(0), values.NewFloat(1 << 53)}}
	for a := 1; a <= 4000; a++ {
		tuples = append(tuples, relation.Tuple{values.NewInt(int64(a)), values.NewFloat(1)})
	}
	rel, err := relation.New("R", []string{"a", "x"}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(par int) float64 {
		f := ftree.New()
		f.NewRelationPath("a", "x")
		ar, err := FromRelationStore(frep.NewStore(), rel, f)
		if err != nil {
			t.Fatal(err)
		}
		ar.Par = par
		if err := ar.Gamma("a", []ftree.AggField{{Fn: ftree.Sum, Arg: "x"}}); err != nil {
			t.Fatal(err)
		}
		out, err := ar.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Tuples) != 1 || len(out.Tuples[0]) != 1 {
			t.Fatalf("P=%d: root γ flattened to %v, want one value", par, out.Tuples)
		}
		return out.Tuples[0][0].Float()
	}
	want := sum(1)
	if want != 1<<53 {
		t.Fatalf("P=1: SUM = %v, want 2^53 (each 1.0 rounds away)", want)
	}
	if got := sum(8); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("P=8: SUM = %v, want P=1's %v bit for bit", got, want)
	}
}

// TestParallelSwapGenericKeys runs the values.Compare arm of χ (String
// keys) on per-worker scratches: the generic path pins slab windows and
// values in its scratch, which every worker must drop before the
// scratch returns to the shared pool.
func TestParallelSwapGenericKeys(t *testing.T) {
	old := MinParallelRebuildValues
	MinParallelRebuildValues = 1
	defer func() { MinParallelRebuildValues = old }()

	tuples := manySmallOccurrences(1500, stringKey)
	serial, rel := pathARel(t, tuples, true)
	parallel, _ := pathARel(t, tuples, true)
	parallel.Par = 8
	for _, ar := range []*ARel{serial, parallel} {
		if err := ar.Swap("c"); err != nil {
			t.Fatal(err)
		}
	}
	diffFlat(t, "swap-string-keys", serial, parallel)
	if !relation.EqualAsSets(mustFlatten(t, parallel), rel) {
		t.Fatal("parallel swap over String keys changed the represented relation")
	}
}

// TestParallelMergeMatchesSerial exercises the merge operator below a
// shared parent (the join path).
func TestParallelMergeMatchesSerial(t *testing.T) {
	old := MinParallelRebuildValues
	MinParallelRebuildValues = 1
	defer func() { MinParallelRebuildValues = old }()

	build := func(par int) *ARel {
		rng := rand.New(rand.NewSource(11))
		n := 3000
		t1 := make([]relation.Tuple, n)
		t2 := make([]relation.Tuple, n)
		for i := range t1 {
			t1[i] = relation.Tuple{
				values.NewInt(int64(rng.Intn(30))),
				values.NewInt(int64(rng.Intn(25))),
			}
			t2[i] = relation.Tuple{
				values.NewInt(int64(rng.Intn(30))),
				values.NewInt(int64(rng.Intn(25))),
			}
		}
		r1, err := relation.New("R1", []string{"k", "x"}, t1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := relation.New("R2", []string{"k2", "y"}, t2)
		if err != nil {
			t.Fatal(err)
		}
		s := frep.NewStore()
		fa := ftree.New()
		fa.NewRelationPath("k", "x")
		a, err := FromRelationStore(s, r1, fa)
		if err != nil {
			t.Fatal(err)
		}
		fb := ftree.New()
		fb.NewRelationPath("k2", "y")
		b, err := FromRelationStore(s, r2, fb)
		if err != nil {
			t.Fatal(err)
		}
		ar := Product(a, b)
		ar.Par = par
		return ar
	}
	serial, parallel := build(1), build(8)
	// The root-level merge k=k2 makes x and y siblings under the merged
	// root; merging them then exercises the parallel sibling-merge path.
	apply := func(ar *ARel) error {
		if err := ar.Merge("k", "k2"); err != nil {
			return err
		}
		return ar.Merge("x", "y")
	}
	if err := apply(serial); err != nil {
		t.Fatalf("serial: %v", err)
	}
	if err := apply(parallel); err != nil {
		t.Fatalf("parallel: %v", err)
	}
	diffFlat(t, "merge", serial, parallel)
}

// TestParallelGammaRankedCount: γ below the root on a ranked store
// answers count-only subtrees from the ranked index, inside every
// worker's overlay at P=2 as well as serially, and the result matches γ
// on an unranked build, which walks them. γ_count answers the whole
// occurrence from the index; γ_{count,sum} folds b itself and reads the
// multiplicity of its count-only child c from the index.
func TestParallelGammaRankedCount(t *testing.T) {
	oldV, oldW := MinParallelRebuildValues, MinParallelRebuildWork
	MinParallelRebuildValues, MinParallelRebuildWork = 1, 1
	defer func() { MinParallelRebuildValues, MinParallelRebuildWork = oldV, oldW }()
	defer func(old bool) { frep.KernelStatsEnabled = old }(frep.KernelStatsEnabled)
	frep.KernelStatsEnabled = true

	for _, fields := range [][]ftree.AggField{
		{{Fn: ftree.Count}},
		{{Fn: ftree.Count}, {Fn: ftree.Sum, Arg: "b"}},
	} {
		walked := buildARel(t, 4000, 1)
		if err := walked.Gamma("b", fields); err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2} {
			ranked := buildARel(t, 4000, par)
			if err := ranked.Store.BuildRanks(); err != nil {
				t.Fatal(err)
			}
			frep.ResetKernelStats()
			workers := ParallelRebuildWorkers()
			if err := ranked.Gamma("b", fields); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("γ%v P=%d", fields, par)
			if got := frep.ReadKernelStats().AggRanked; got == 0 {
				t.Errorf("%s: the ranked index never answered", name)
			}
			if spawned := ParallelRebuildWorkers() - workers; (par > 1) != (spawned > 0) {
				t.Errorf("%s: %d operator workers spawned", name, spawned)
			}
			diffFlat(t, name, walked, ranked)
		}
	}
}
