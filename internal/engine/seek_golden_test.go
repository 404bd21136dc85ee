package engine

// Golden equivalence suite for ranked direct access: every workload
// query (Q1–Q13 over the materialised views, flat Q1–Q5 over the base
// relations) runs with OFFSET at the boundaries the issue pins — 0, 1,
// deep inside the stream, and past the end — and the output must be
// byte-identical between the linear-skip path (unranked view, serial)
// and the ranked-seek path at every parallelism level on RunOnView, and
// between the page cut from the whole stream and the ranked bases'
// seek on Exec. Bare COUNT(*) answered
// from the ranked index must match the enumerated count on every
// workload relation, and TotalCount must equal the pre-OFFSET stream
// length.

import (
	"fmt"
	"testing"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/workload"
)

// seekOffsetsUnderTest are the OFFSET boundaries pinned by the suite:
// first page, one-off, deep inside typical results, and far past the
// end of every scale-1 stream.
var seekOffsetsUnderTest = []int{0, 1, 2500, 1 << 20}

// rankedViewCases enumerates the workload's view queries with their
// arena views.
func rankedViewCases(t *testing.T, r1a, r3a *fops.ARel) []struct {
	name  string
	mk    func(off, lim int) *query.Query
	aview *fops.ARel
} {
	t.Helper()
	type tc = struct {
		name  string
		mk    func(off, lim int) *query.Query
		aview *fops.ARel
	}
	with := func(mk func() *query.Query) func(off, lim int) *query.Query {
		return func(off, lim int) *query.Query {
			q := mk()
			q.Offset, q.Limit = off, lim
			return q
		}
	}
	var cases []tc
	for i := 1; i <= 5; i++ {
		i := i
		cases = append(cases, tc{fmt.Sprintf("Q%d", i), with(func() *query.Query {
			q, err := workload.AggQuery(i)
			if err != nil {
				t.Fatal(err)
			}
			return q
		}), r1a})
	}
	cases = append(cases,
		tc{"Q6", with(workload.Q6), r1a},
		tc{"Q7", with(workload.Q7), r1a},
		tc{"Q8", with(workload.Q8), r1a},
		tc{"Q9", with(workload.Q9), r1a},
		tc{"Q10", with(func() *query.Query { return workload.Q10(0) }), r1a},
		tc{"Q11", with(func() *query.Query { return workload.Q11(0) }), r1a},
		tc{"Q12", with(func() *query.Query { return workload.Q12(0) }), r1a},
		tc{"Q13", with(func() *query.Query { return workload.Q13(0) }), r3a},
	)
	return cases
}

// TestGoldenRankedSeekViewQueries: the unranked serial run of every
// view query × offset is the baseline; after BuildRanks on the view
// stores, the ranked runs at P ∈ {1, 2, 8} must reproduce it row for
// row.
func TestGoldenRankedSeekViewQueries(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 1})
	cat := ds.Catalog()
	r1a, err := ds.FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	r3a, err := ds.FactorisedR3()
	if err != nil {
		t.Fatal(err)
	}
	// Force parallel fan-out at this scale so P > 1 really exercises the
	// segmented merge.
	oldEnum, oldFan := minParallelEnumRows, maxEnumFanout
	minParallelEnumRows = 16
	maxEnumFanout = 64
	defer func() { minParallelEnumRows, maxEnumFanout = oldEnum, oldFan }()

	cases := rankedViewCases(t, r1a, r3a)
	const limit = 7

	serial := &Engine{PartialAgg: true, Parallelism: 1}
	baseline := map[string]*relation.Relation{}
	for _, c := range cases {
		for _, off := range seekOffsetsUnderTest {
			c, off := c, off
			baseline[fmt.Sprintf("%s/offset=%d", c.name, off)] = collectRows(t, func() (*Result, error) {
				return serial.RunOnView(c.mk(off, limit), c.aview, cat)
			})
		}
	}

	if err := r1a.Store.BuildRanks(); err != nil {
		t.Fatal(err)
	}
	if err := r3a.Store.BuildRanks(); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		eng := &Engine{PartialAgg: true, Parallelism: par}
		for _, c := range cases {
			for _, off := range seekOffsetsUnderTest {
				c, off := c, off
				name := fmt.Sprintf("P=%d/%s/offset=%d", par, c.name, off)
				got := collectRows(t, func() (*Result, error) {
					return eng.RunOnView(c.mk(off, limit), c.aview, cat)
				})
				diffOrdered(t, name, baseline[fmt.Sprintf("%s/offset=%d", c.name, off)], got)
			}
		}
	}
}

// TestGoldenRankedSeekFlatQueries: flat Q1–Q5 (joins included) with
// OFFSET boundaries at P ∈ {1, 2, 8}, whose ranked bases take the seek
// route, must reproduce the page cut from the query's whole stream.
func TestGoldenRankedSeekFlatQueries(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 1})
	db := DB(ds.DB())
	oldEnum, oldFan := minParallelEnumRows, maxEnumFanout
	minParallelEnumRows = 16
	maxEnumFanout = 64
	defer func() { minParallelEnumRows, maxEnumFanout = oldEnum, oldFan }()
	const limit = 7
	for _, par := range []int{1, 2, 8} {
		eng := &Engine{PartialAgg: true, Parallelism: par}
		for i := 1; i <= 5; i++ {
			whole, err := workload.FlatAggQuery(i)
			if err != nil {
				t.Fatal(err)
			}
			all := collectRows(t, func() (*Result, error) { return eng.Run(whole, db) })
			for _, off := range seekOffsetsUnderTest {
				q, _ := workload.FlatAggQuery(i)
				q.Offset, q.Limit = off, limit
				prep, err := eng.Prepare(q, db)
				if err != nil {
					t.Fatal(err)
				}
				lo := min(off, len(all.Tuples))
				page := &relation.Relation{Attrs: all.Attrs, Tuples: all.Tuples[lo:min(lo+limit, len(all.Tuples))]}
				name := fmt.Sprintf("P=%d/flat-Q%d/offset=%d", par, i, off)
				diffOrdered(t, name, page, collectRows(t, func() (*Result, error) { return prep.Exec(db) }))
			}
		}
	}
}

// TestGoldenCountStarViaRanks: a bare COUNT(*) over ranked bases must
// take the fast path (no plan execution) and agree with the enumerated
// count — the relation's cardinality — for every workload relation and
// for a product of two.
func TestGoldenCountStarViaRanks(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 1})
	db := DB(ds.DB())
	eng := New()
	countOf := func(t *testing.T, res *Result, err error) int64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		if res.fastCount == nil {
			t.Fatal("ranked COUNT(*) did not take the fast path")
		}
		rel, err := res.Relation()
		if err != nil {
			t.Fatal(err)
		}
		if len(rel.Tuples) != 1 || len(rel.Tuples[0]) != 1 {
			t.Fatalf("COUNT(*) yielded %d rows", len(rel.Tuples))
		}
		return rel.Tuples[0][0].Int()
	}
	for name, rel := range db {
		q := &query.Query{
			Relations:  []string{name},
			Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}},
		}
		prep, err := eng.Prepare(q, db)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prep.Exec(db)
		if got, want := countOf(t, res, err), int64(rel.Cardinality()); got != want {
			t.Fatalf("%s: ranked COUNT(*) = %d, want cardinality %d", name, got, want)
		}
	}
	// A relation product: the fast path multiplies root counts.
	names := make([]string, 0, len(db))
	card := int64(1)
	for name, rel := range db {
		names = append(names, name)
		card *= int64(rel.Cardinality())
		if len(names) == 2 {
			break
		}
	}
	q := &query.Query{Relations: names, Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}}}
	prep, err := eng.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Exec(db)
	if got := countOf(t, res, err); got != card {
		t.Fatalf("product COUNT(*) = %d, want %d", got, card)
	}
}

// TestTotalCountMatchesEnumeration: TotalCount must equal the length of
// the unrestricted stream regardless of the query's OFFSET and LIMIT,
// on flat, grouped and agg-ordered paths.
func TestTotalCountMatchesEnumeration(t *testing.T) {
	db, _ := offsetDB(t, 50)
	eng := New()
	cases := []func(off, lim int) *query.Query{
		func(off, lim int) *query.Query {
			return &query.Query{Relations: []string{"Big"},
				OrderBy: []query.OrderItem{{Attr: "k"}}, Offset: off, Limit: lim}
		},
		func(off, lim int) *query.Query {
			return &query.Query{Relations: []string{"Big"}, GroupBy: []string{"v"},
				Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}},
				OrderBy:    []query.OrderItem{{Attr: "v"}}, Offset: off, Limit: lim}
		},
		func(off, lim int) *query.Query {
			return &query.Query{Relations: []string{"Big"}, GroupBy: []string{"v"},
				Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "k", As: "s"}},
				OrderBy:    []query.OrderItem{{Attr: "s", Desc: true}}, Offset: off, Limit: lim}
		},
		func(off, lim int) *query.Query {
			return &query.Query{Relations: []string{"Big"}, GroupBy: []string{"v"},
				Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}},
				Having:     []query.Filter{{Attr: "n", Op: fops.GT, Const: values.NewInt(7)}},
				Offset:     off, Limit: lim}
		},
	}
	for _, mk := range cases {
		q := mk(17, 3)
		want := collectRows(t, func() (*Result, error) { return eng.Run(mk(0, 0), db) })
		res, err := eng.Run(q, db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.TotalCount()
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
		if got != int64(len(want.Tuples)) {
			t.Fatalf("%s: TotalCount = %d, want %d", q, got, len(want.Tuples))
		}
	}
}

// TestSeekOffsetCountersAdvance: applying an OFFSET over a ranked view
// must bump the seek counter; the unranked small-offset path must bump
// the skip counter.
func TestSeekOffsetCountersAdvance(t *testing.T) {
	ds := workload.Generate(workload.Config{Scale: 1})
	cat := ds.Catalog()
	r1a, err := ds.FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	q := workload.Q10(5)
	q.Offset = 3

	before := SeekSkipStats()
	res, err := New().RunOnView(q, r1a, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Count(); err != nil {
		t.Fatal(err)
	}
	res.Close()
	mid := SeekSkipStats()
	if mid.SkipOffsets <= before.SkipOffsets {
		t.Fatalf("unranked small OFFSET did not take the skip route: %+v -> %+v", before, mid)
	}

	if err := r1a.Store.BuildRanks(); err != nil {
		t.Fatal(err)
	}
	res, err = New().RunOnView(workloadWithOffset(3), r1a, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Count(); err != nil {
		t.Fatal(err)
	}
	res.Close()
	after := SeekSkipStats()
	if after.SeekOffsets <= mid.SeekOffsets {
		t.Fatalf("ranked OFFSET did not take the seek route: %+v -> %+v", mid, after)
	}
}

func workloadWithOffset(off int) *query.Query {
	q := workload.Q10(5)
	q.Offset = off
	return q
}
