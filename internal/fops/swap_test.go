package fops

// χ through the distribution kernel ≡ χ through the values.Compare sort
// ≡ the flat relation, for every key kind and for each way the keys are
// obtained (column-index payload windows, Value.Int() beyond the indexed
// prefix), and the per-store scratch neither leaks state between
// occurrences nor allocates per occurrence.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// pathARel factorises tuples over the linear path a→b→c and, when
// indexed, builds the column index production stores carry.
func pathARel(t testing.TB, tuples []relation.Tuple, indexed bool) (*ARel, *relation.Relation) {
	t.Helper()
	rel, err := relation.New("R", []string{"a", "b", "c"}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	rel = rel.Dedup()
	f := ftree.New()
	f.NewRelationPath("a", "b", "c")
	ar, err := FromRelationStore(frep.NewStore(), rel, f)
	if err != nil {
		t.Fatal(err)
	}
	if indexed {
		ar.Store.BuildCols()
	}
	return ar, rel
}

// withKernels runs fn with frep.EnableKernels forced to on.
func withKernels(on bool, fn func()) {
	old := frep.EnableKernels
	frep.EnableKernels = on
	defer func() { frep.EnableKernels = old }()
	fn()
}

// swapBothWays applies the swaps to two copies of the same factorisation,
// one per setting of the kernel switch, and requires both to represent
// rel and to be the same representation, union for union.
func swapBothWays(t *testing.T, tuples []relation.Tuple, indexed bool, attrs ...string) {
	t.Helper()
	var out [2]*ARel
	var rel *relation.Relation
	for i, on := range []bool{true, false} {
		withKernels(on, func() {
			ar, r := pathARel(t, tuples, indexed)
			for _, attr := range attrs {
				if err := ar.Swap(attr); err != nil {
					t.Fatalf("swap %s (kernels %v): %v", attr, on, err)
				}
				if !relation.EqualAsSets(mustFlatten(t, ar), r) {
					t.Fatalf("swap %s (kernels %v) changed the represented relation", attr, on)
				}
			}
			out[i], rel = ar, r
		})
	}
	if len(out[0].Roots) != len(out[1].Roots) {
		t.Fatalf("%d roots with kernels, %d without", len(out[0].Roots), len(out[1].Roots))
	}
	for i := range out[0].Roots {
		if !frep.EqualStore(out[0].Store, out[0].Roots[i], out[1].Store, out[1].Roots[i]) {
			t.Fatalf("root %d: kernel and scalar χ built different representations of %d tuples", i, rel.Cardinality())
		}
	}
}

func intKey(rng *rand.Rand) values.Value { return values.NewInt(int64(rng.Intn(400)) - 200) }

func stringKey(rng *rand.Rand) values.Value {
	return values.NewString(fmt.Sprintf("k%03d", rng.Intn(300)))
}

// keyKinds are the B-value generators of the kernel-vs-scalar tests.
var keyKinds = []struct {
	name string
	key  func(rng *rand.Rand) values.Value
}{
	{"int", intKey},
	{"int-wide", func(rng *rand.Rand) values.Value { return values.NewInt(rng.Int63() - rng.Int63()) }},
	{"float", func(rng *rand.Rand) values.Value { return values.NewFloat(float64(rng.Intn(400)-200) / 4) }},
	{"string", stringKey},
	{"int-float-mix", func(rng *rand.Rand) values.Value {
		if rng.Intn(2) == 0 {
			return values.NewInt(int64(rng.Intn(200)) - 100)
		}
		return values.NewFloat(float64(rng.Intn(400)-200) / 2)
	}},
}

func TestSwapKernelMatchesScalar(t *testing.T) {
	for _, kk := range keyKinds {
		for _, indexed := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/indexed=%v", kk.name, indexed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(3))
				tuples := make([]relation.Tuple, 3000)
				for i := range tuples {
					tuples[i] = relation.Tuple{
						values.NewInt(int64(rng.Intn(120))),
						kk.key(rng),
						values.NewInt(int64(rng.Intn(6))),
					}
				}
				// Root-level: one occurrence of ~3000 pairs (the radix
				// side for Int keys); then back, which regroups unions
				// the first swap appended.
				swapBothWays(t, tuples, indexed, "b", "a")
			})
		}
	}
}

// TestSwapBeyondColumnPrefix pins the second key source: after one swap
// the unions χ reads were appended past the column index, so the keys of
// the next swap come from Value.Int(), not from payload windows.
func TestSwapBeyondColumnPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tuples := make([]relation.Tuple, 4000)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			values.NewInt(int64(rng.Intn(300)) - 150),
			values.NewInt(int64(rng.Intn(90)) - 45),
			values.NewInt(int64(rng.Intn(4))),
		}
	}
	ar, _ := pathARel(t, tuples, true)
	if !ar.Store.HasCols() {
		t.Fatal("column index should cover the fresh base store")
	}
	if err := ar.Swap("b"); err != nil {
		t.Fatal(err)
	}
	if ar.Store.HasCols() {
		t.Fatal("the swap appended nothing past the column index; the test would not reach Value.Int()")
	}
	// b→a→c now; swapping a back above b regroups the a-unions the
	// first swap built, and c above a then runs mid-tree over them.
	swapBothWays(t, tuples, true, "b", "a", "b", "c")
}

// manySmallOccurrences builds nA a-values with 1–5 (b, c) pairs each,
// and every 97th with a few hundred, so one scratch alternates between
// the insertion and the radix side of the kernel.
func manySmallOccurrences(nA int, key func(rng *rand.Rand) values.Value) []relation.Tuple {
	rng := rand.New(rand.NewSource(17))
	var tuples []relation.Tuple
	for a := 0; a < nA; a++ {
		m := 1 + rng.Intn(5)
		if a%97 == 0 {
			m = 200 + rng.Intn(200)
		}
		for ; m > 0; m-- {
			tuples = append(tuples, relation.Tuple{
				values.NewInt(int64(a)),
				values.NewInt(int64(rng.Intn(40))),
				key(rng),
			})
		}
	}
	return tuples
}

func TestSwapMidTreeManySmallOccurrences(t *testing.T) {
	for _, kk := range keyKinds {
		t.Run(kk.name, func(t *testing.T) {
			// χ_{b,c} under each of 3000 a-values: 3000 occurrences
			// through one scratch.
			swapBothWays(t, manySmallOccurrences(3000, kk.key), true, "c")
		})
	}
}

// TestSwapAllocsIndependentOfOccurrences: on a warm store and a warm
// scratch pool a mid-tree swap allocates for the operator (plan, path,
// f-tree update), not for its occurrences.
func TestSwapAllocsIndependentOfOccurrences(t *testing.T) {
	wasParanoid := Paranoid
	Paranoid = false
	defer func() { Paranoid = wasParanoid }()
	base, _ := pathARel(t, manySmallOccurrences(2000, intKey), true)
	if n := base.Store.Len(base.Roots[0]); n < 1000 {
		t.Fatalf("only %d occurrences", n)
	}
	st := frep.NewStore()
	run := func() {
		ar := cloneArena(base, st)
		if err := ar.Swap("c"); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the store's slabs and the pooled scratch
	// Measured: 30. The ceiling leaves room for a GC emptying the scratch
	// pool mid-measurement; one allocation per occurrence would be ≥ 2000.
	if allocs := testing.AllocsPerRun(20, run); allocs > 120 {
		t.Fatalf("mid-tree swap over 2000 occurrences: %.0f allocs/run, want O(1)", allocs)
	}
}
