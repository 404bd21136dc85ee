package frep

import (
	"math/rand"
	"strconv"
	"testing"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// benchRelation builds a three-attribute relation with n tuples and a
// hierarchical value distribution that factorises well.
func benchRelation(n int) *relation.Relation {
	rng := rand.New(rand.NewSource(7))
	ts := make([]relation.Tuple, n)
	for i := range ts {
		a := int64(rng.Intn(n/16 + 1))
		ts[i] = relation.Tuple{
			values.NewInt(a),
			values.NewInt(int64(rng.Intn(32))),
			values.NewInt(int64(rng.Intn(1024))),
		}
	}
	return relation.MustNew("R", []string{"a", "b", "c"}, ts).Dedup()
}

func benchStoreRep(tb testing.TB, n int) (*ftree.Forest, *Store, []NodeID) {
	tb.Helper()
	rel := benchRelation(n)
	f := ftree.New()
	f.NewRelationPath("a", "b", "c")
	s := NewStore()
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		tb.Fatal(err)
	}
	return f, s, roots
}

// BenchmarkBuild factorises the benchmark relation from scratch per
// iteration into one reused store — the base-relation step of every
// Exec.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		rel := benchRelation(n)
		f := ftree.New()
		f.NewRelationPath("a", "b", "c")
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			s := NewStore()
			for i := 0; i < b.N; i++ {
				s.Reset()
				if _, err := BuildStoreUnchecked(s, rel, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnumerate verifies the constant-delay claim empirically: ns/op
// is reported per tuple and should stay flat as the data grows.
func BenchmarkEnumerate(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		f, s, roots := benchStoreRep(b, n)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			total := 0
			for i := 0; i < b.N; i++ {
				e, err := NewStoreEnumerator(f, s, roots, nil)
				if err != nil {
					b.Fatal(err)
				}
				for e.Next() {
					total++
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/tuple")
		})
	}
}

func BenchmarkEnumerateOrdered(b *testing.B) {
	f, s, roots := benchStoreRep(b, 50000)
	order := []OrderSpec{{Attr: "a", Desc: true}, {Attr: "b"}}
	for i := 0; i < b.N; i++ {
		e, err := NewStoreEnumerator(f, s, roots, order)
		if err != nil {
			b.Fatal(err)
		}
		for e.Next() {
		}
	}
}

// BenchmarkCount measures the Section 3.2 count algorithm per singleton.
func BenchmarkCount(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		f, s, roots := benchStoreRep(b, n)
		sing := s.SingletonsAll(roots)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CountStore(f.Roots[0], s, roots[0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sing), "ns/singleton")
		})
	}
}

// BenchmarkEvaluatorSumMin measures steady-state composite aggregation
// over a prebuilt representation (no construction).
func BenchmarkEvaluatorSumMin(b *testing.B) {
	f, s, roots := benchStoreRep(b, 50000)
	ev, err := NewEvaluator(f.Roots[0], []ftree.AggField{
		{Fn: ftree.Count},
		{Fn: ftree.Sum, Arg: "c"},
		{Fn: ftree.Min, Arg: "c"},
	})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]values.Value, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvalStoreInto(s, roots[0], out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupEnumerator runs grouped aggregation (ϖ_{a; count,
// sum(c)}) over a prebuilt representation; parts evaluate into reused
// buffers, so allocations do not grow with the number of groups.
func BenchmarkGroupEnumerator(b *testing.B) {
	f, s, roots := benchStoreRep(b, 50000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ge, err := NewStoreGroupEnumerator(f, s, roots, []OrderSpec{{Attr: "a"}},
			[]ftree.AggField{{Fn: ftree.Count}, {Fn: ftree.Sum, Arg: "c"}})
		if err != nil {
			b.Fatal(err)
		}
		for {
			ok, err := ge.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
}

// BenchmarkSnapshot measures what a concurrent reader pays to get a
// private copy of a whole forest: a slab clone versus an O(1) snapshot.
func BenchmarkSnapshot(b *testing.B) {
	_, s, _ := benchStoreRep(b, 20000)
	b.Run("slab-clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Clone()
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Snapshot()
		}
	})
}

// TestHotPathAllocs pins what the serial hot path allocates per call on
// the benchmark fixtures above: opening an enumerator and draining it,
// the Section 3.2 count, and a compiled evaluator folding into a reused
// buffer. None may grow with the data — an allocation per tuple, value
// or union would add thousands here.
func TestHotPathAllocs(t *testing.T) {
	enumerate := func(_ *testing.T, f *ftree.Forest, s *Store, roots []NodeID) func() error {
		return func() error {
			e, err := NewStoreEnumerator(f, s, roots, nil)
			if err != nil {
				return err
			}
			for e.Next() {
			}
			return nil
		}
	}
	count := func(_ *testing.T, f *ftree.Forest, s *Store, roots []NodeID) func() error {
		return func() error {
			_, err := CountStore(f.Roots[0], s, roots[0])
			return err
		}
	}
	eval := func(t *testing.T, f *ftree.Forest, s *Store, roots []NodeID) func() error {
		ev, err := NewEvaluator(f.Roots[0], []ftree.AggField{
			{Fn: ftree.Count},
			{Fn: ftree.Sum, Arg: "c"},
			{Fn: ftree.Min, Arg: "c"},
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]values.Value, 3)
		return func() error { return ev.EvalStoreInto(s, roots[0], out) }
	}
	for _, a := range []struct {
		name    string
		n       int
		ceiling float64 // measured on go 1.24 (25, 17, 0) plus headroom
		op      func(*testing.T, *ftree.Forest, *Store, []NodeID) func() error
	}{
		{"enumerate", 1000, 28, enumerate},
		{"enumerate", 10000, 28, enumerate},
		{"enumerate", 100000, 28, enumerate},
		{"count", 1000, 19, count},
		{"count", 100000, 19, count},
		{"eval", 50000, 0, eval},
	} {
		t.Run(a.name+"/"+strconv.Itoa(a.n), func(t *testing.T) {
			f, s, roots := benchStoreRep(t, a.n)
			op := a.op(t, f, s, roots)
			allocs := testing.AllocsPerRun(10, func() {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f allocs", allocs)
			if allocs > a.ceiling {
				t.Fatalf("%.0f allocs, ceiling %.0f", allocs, a.ceiling)
			}
		})
	}
}
