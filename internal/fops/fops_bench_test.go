package fops

import (
	"math/rand"
	"strconv"
	"testing"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

func benchARel(b *testing.B, n int) *ARel {
	b.Helper()
	wasParanoid := Paranoid
	Paranoid = false
	b.Cleanup(func() { Paranoid = wasParanoid })
	rng := rand.New(rand.NewSource(11))
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = relation.Tuple{
			values.NewInt(int64(rng.Intn(n/16 + 1))),
			values.NewInt(int64(rng.Intn(64))),
			values.NewInt(int64(rng.Intn(1024))),
		}
	}
	rel := relation.MustNew("R", []string{"a", "b", "c"}, ts).Dedup()
	f := ftree.New()
	f.NewRelationPath("a", "b", "c")
	ar, err := FromRelationStoreUnchecked(frep.NewStore(), rel, f)
	if err != nil {
		b.Fatal(err)
	}
	return ar
}

// Each benchmark slab-copies the base representation into a reused
// store per iteration (StopTimer'd) and then measures the operator, so
// the numbers isolate the operator itself.

// cloneArena slab-copies base into the reused scratch store and returns
// a fresh working relation.
func cloneArena(base *ARel, scratch *frep.Store) *ARel {
	scratch.Reset()
	base.Store.CloneInto(scratch)
	t, _ := base.Tree.Clone()
	return &ARel{Tree: t, Store: scratch, Roots: append([]frep.NodeID{}, base.Roots...)}
}

// BenchmarkSwap measures the χ restructuring operator (the cost of
// re-sorting/regrouping factorised data) per singleton, on both sides of
// the distribution kernel's cut-over: "root" swaps b above a — one
// occurrence holding every (a, b) pair — and "mid" swaps c above b under
// each a, n/16 occurrences of a handful of pairs each.
func BenchmarkSwap(b *testing.B) {
	for _, arm := range []struct{ name, attr string }{{"root", "b"}, {"mid", "c"}} {
		for _, n := range []int{1000, 10000, 100000} {
			b.Run(arm.name+"/"+strconv.Itoa(n), func(b *testing.B) {
				base := benchARel(b, n)
				scratch := frep.NewStore()
				sing := base.Singletons()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ar := cloneArena(base, scratch)
					b.StartTimer()
					if err := ar.Swap(arm.attr); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sing), "ns/singleton")
			})
		}
	}
}

func BenchmarkGamma(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			base := benchARel(b, n)
			scratch := frep.NewStore()
			fields := []ftree.AggField{{Fn: ftree.Sum, Arg: "c"}, {Fn: ftree.Count}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ar := cloneArena(base, scratch)
				b.StartTimer()
				if err := ar.Gamma("b", fields); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSelectConst(b *testing.B) {
	base := benchARel(b, 100000)
	scratch := frep.NewStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ar := cloneArena(base, scratch)
		b.StartTimer()
		if err := ar.SelectConst("c", LT, values.NewInt(512)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	mk := func(name, a1, a2 string, n int) *relation.Relation {
		ts := make([]relation.Tuple, n)
		for i := range ts {
			ts[i] = relation.Tuple{
				values.NewInt(int64(rng.Intn(n / 4))),
				values.NewInt(int64(rng.Intn(64))),
			}
		}
		return relation.MustNew(name, []string{a1, a2}, ts).Dedup()
	}
	r := mk("R", "x", "y", 20000)
	s := mk("S", "x2", "z", 20000)
	wasParanoid := Paranoid
	Paranoid = false
	b.Cleanup(func() { Paranoid = wasParanoid })
	scratch := frep.NewStore()
	path := func(rel *relation.Relation) *ARel {
		f := ftree.New()
		f.NewRelationPath(rel.Attrs...)
		ar, err := FromRelationStoreUnchecked(scratch, rel, f)
		if err != nil {
			b.Fatal(err)
		}
		return ar
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		scratch.Reset()
		ar := Product(path(r), path(s))
		b.StartTimer()
		if err := ar.Merge("x", "x2"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClone contrasts the two ways of getting a private copy of a
// view before any operator runs: a slab clone and the O(1) snapshot
// RunOnView takes.
func BenchmarkClone(b *testing.B) {
	base := benchARel(b, 100000)
	scratch := frep.NewStore()
	b.Run("slab", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ar := cloneArena(base, scratch); ar == nil {
				b.Fatal("nil clone")
			}
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ar := base.Snapshot(); ar == nil {
				b.Fatal("nil snapshot")
			}
		}
	})
}
