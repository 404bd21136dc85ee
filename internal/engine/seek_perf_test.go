package engine

import (
	"context"
	"testing"
	"time"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// deepPathView builds a relation of fanout³ rows factorised over the
// path a→b→c, optionally ranked — the pagination target of the
// deep-page cost test.
func deepPathView(t *testing.T, fanout int, ranked bool) *fops.ARel {
	t.Helper()
	n := fanout * fanout * fanout
	tuples := make([]relation.Tuple, 0, n)
	for i := 0; i < n; i++ {
		tuples = append(tuples, relation.Tuple{
			values.NewInt(int64(i / (fanout * fanout))),
			values.NewInt(int64((i / fanout) % fanout)),
			values.NewInt(int64(i % fanout)),
		})
	}
	rel, err := relation.New("Deep", []string{"a", "b", "c"}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	f := ftree.New()
	f.NewRelationPath("a", "b", "c")
	s := frep.NewStore()
	roots, err := frep.BuildStoreUnchecked(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	ar := &fops.ARel{Tree: f, Store: s, Roots: roots}
	if ranked {
		if err := s.BuildRanks(); err != nil {
			t.Fatal(err)
		}
	}
	return ar
}

// pageCost returns the cheapest observed wall clock of draining one
// LIMIT-10 page at the given OFFSET (min over reps, so scheduler noise
// inflates nothing).
func pageCost(t *testing.T, view *fops.ARel, off, reps int) time.Duration {
	t.Helper()
	eng := &Engine{PartialAgg: true}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		q := &query.Query{Relations: []string{"Deep"}, Offset: off, Limit: 10}
		start := time.Now()
		res, err := eng.RunOnView(q, view, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.Rows(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
		res.Close()
	}
	return best
}

// TestRankedDeepPageNotLinear is the issue's machine-independent
// pagination bound: on a ranked store, a page deep in the stream
// (OFFSET ≥ 10k) must cost no more than 3× the first page — the seek
// descends counts in O(depth × log fanout), so page depth cannot
// surface as a linear term. A generous absolute slack keeps the ratio
// meaningful on noisy CI machines without ever letting a linear-cost
// regression (tens of thousands of odometer steps) slip through.
func TestRankedDeepPageNotLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const fanout = 64 // 262144 rows, so a linear route cannot hide in the slack
	view := deepPathView(t, fanout, true)
	const reps = 15
	page0 := pageCost(t, view, 0, reps)
	deep := pageCost(t, view, 100_000, reps)
	slack := 200 * time.Microsecond
	if deep > 3*page0+slack {
		t.Fatalf("ranked deep page (offset 100000) took %v, page-0 %v: exceeds 3× + %v slack", deep, page0, slack)
	}
}
