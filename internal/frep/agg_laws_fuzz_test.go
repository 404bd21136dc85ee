package frep

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// FuzzAggLaws checks the partition law of the aggregate algebra: a root
// union cut at fuzzed points into windows, each evaluated with
// EvalStoreRangeInto and folded with the table's ⊕ from its identity,
// equals EvalStoreInto over the whole union. The data is Int, so the
// agreement must be bit-identical, wrapping sums near ±MaxInt64
// included.
func FuzzAggLaws(f *testing.F) {
	f.Add(int64(1), uint8(2), []byte{1, 5, 9})
	f.Add(int64(7), uint8(0), []byte{})
	f.Add(int64(42), uint8(1), []byte{0, 0, 255})
	f.Add(int64(-3), uint8(5), []byte{3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, cuts []byte) {
		rng := rand.New(rand.NewSource(seed))
		attrs := []string{"a", "b", "c"}[:1+int(shape)%3]
		val := func() values.Value {
			switch rng.Intn(8) {
			case 0:
				return values.NewInt(math.MaxInt64 - int64(rng.Intn(3)))
			case 1:
				return values.NewInt(math.MinInt64 + int64(rng.Intn(3)))
			}
			return values.NewInt(int64(rng.Intn(9) - 4))
		}
		ts := make([]relation.Tuple, rng.Intn(48))
		for i := range ts {
			ts[i] = make(relation.Tuple, len(attrs))
			for j := range attrs {
				ts[i][j] = val()
			}
		}
		rel := relation.MustNew("R", attrs, ts).Dedup()
		fr := ftree.New()
		fr.NewRelationPath(attrs...)
		s := NewStore()
		roots, err := BuildStore(s, rel, fr)
		if err != nil {
			t.Fatal(err)
		}
		fields := []ftree.AggField{ftree.CountField()}
		for _, a := range attrs {
			for _, fn := range []ftree.Fn{ftree.Sum, ftree.Min, ftree.Max} {
				fields = append(fields, ftree.AggField{Fn: fn, Arg: a})
			}
		}
		ev, err := NewEvaluator(fr.Roots[0], fields)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]values.Value, len(fields))
		if err := ev.EvalStoreInto(s, roots[0], want); err != nil {
			t.Fatal(err)
		}

		n := s.Len(roots[0])
		bounds := []int{0, n}
		for _, c := range cuts {
			bounds = append(bounds, int(c)%(n+1))
		}
		slices.Sort(bounds)
		got := make([]values.Value, len(fields))
		for i, fl := range fields {
			got[i] = fl.Fn.Identity()
		}
		part := make([]values.Value, len(fields))
		for w := 1; w < len(bounds); w++ {
			if err := ev.EvalStoreRangeInto(s, roots[0], bounds[w-1], bounds[w], part); err != nil {
				t.Fatal(err)
			}
			for i, fl := range fields {
				got[i] = fl.Fn.Combine(got[i], part[i])
			}
		}
		for i, fl := range fields {
			if got[i].Kind() != want[i].Kind() || got[i].Raw() != want[i].Raw() {
				t.Fatalf("%s over windows %v = %v, whole union %v", fl, bounds, got[i], want[i])
			}
		}
	})
}
