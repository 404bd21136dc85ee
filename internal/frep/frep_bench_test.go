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

func benchStoreRep(b *testing.B, n int) (*ftree.Forest, *Store, []NodeID) {
	b.Helper()
	rel := benchRelation(n)
	f := ftree.New()
	f.NewRelationPath("a", "b", "c")
	s := NewStore()
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		b.Fatal(err)
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

func BenchmarkCodec(b *testing.B) {
	f, s, roots := benchStoreRep(b, 50000)
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sink countingWriter
			if err := WriteStoreTo(&sink, f, s, roots); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(sink))
		}
	})
}

type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
