package engine

// Parallel-execution suite (run under -race in CI): parallel execution
// must produce byte-identical output to the serial path for the whole
// workload query set at every parallelism level, join all segment
// workers on every exit path, and hand pooled stores back exactly once
// under cancellation.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/workload"
)

// forceParallelThresholds lowers the size floors so that scale-1 test
// data exercises every parallel path, restoring them on cleanup.
func forceParallelThresholds(t *testing.T) {
	t.Helper()
	oldRebuild := fops.MinParallelRebuildValues
	oldEnum, oldFan := minParallelEnumRows, maxEnumFanout
	fops.MinParallelRebuildValues = 1
	minParallelEnumRows = 1
	maxEnumFanout = 64 // exercise the merge machinery even on 1-core CI
	t.Cleanup(func() {
		fops.MinParallelRebuildValues = oldRebuild
		minParallelEnumRows, maxEnumFanout = oldEnum, oldFan
	})
}

// TestGoldenParallelMatchesSerialView runs the workload's view queries
// (AGG Q1–Q5, AGG+ORD Q6–Q9, ORD Q10–Q13 ± LIMIT) serially and at
// P ∈ {2, 8}; outputs must be identical row for row.
func TestGoldenParallelMatchesSerialView(t *testing.T) {
	forceParallelThresholds(t)
	ds := workload.Generate(workload.Config{Scale: 1})
	cat := ds.Catalog()
	r1, err := ds.FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	r3, err := ds.FactorisedR3()
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		name  string
		mk    func() *query.Query
		aview *fops.ARel
	}
	var cases []tc
	for i := 1; i <= 5; i++ {
		i := i
		cases = append(cases, tc{
			name: fmt.Sprintf("Q%d", i),
			mk: func() *query.Query {
				q, err := workload.AggQuery(i)
				if err != nil {
					t.Fatal(err)
				}
				return q
			},
			aview: r1,
		})
	}
	cases = append(cases,
		tc{name: "Q6", mk: workload.Q6, aview: r1},
		tc{name: "Q7", mk: workload.Q7, aview: r1},
		tc{name: "Q8", mk: workload.Q8, aview: r1},
		tc{name: "Q9", mk: workload.Q9, aview: r1},
	)
	for _, limit := range []int{0, 10} {
		limit := limit
		cases = append(cases,
			tc{name: fmt.Sprintf("Q10/limit=%d", limit), mk: func() *query.Query { return workload.Q10(limit) }, aview: r1},
			tc{name: fmt.Sprintf("Q11/limit=%d", limit), mk: func() *query.Query { return workload.Q11(limit) }, aview: r1},
			tc{name: fmt.Sprintf("Q12/limit=%d", limit), mk: func() *query.Query { return workload.Q12(limit) }, aview: r1},
			tc{name: fmt.Sprintf("Q13/limit=%d", limit), mk: func() *query.Query { return workload.Q13(limit) }, aview: r3},
		)
	}
	serial := &Engine{PartialAgg: true, Parallelism: 1}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := collectRows(t, func() (*Result, error) { return serial.RunOnView(c.mk(), c.aview, cat) })
			for _, par := range []int{2, 8} {
				eng := &Engine{PartialAgg: true, Parallelism: par}
				got := collectRows(t, func() (*Result, error) { return eng.RunOnView(c.mk(), c.aview, cat) })
				diffOrdered(t, fmt.Sprintf("%s/P=%d", c.name, par), want, got)
			}
		})
	}
}

// TestGoldenParallelMatchesSerialFlat runs the flat-input AGG queries
// (joins included, so the parallel merge/absorb/γ operator paths all
// fire) serially and at P ∈ {2, 8}.
func TestGoldenParallelMatchesSerialFlat(t *testing.T) {
	forceParallelThresholds(t)
	ds := workload.Generate(workload.Config{Scale: 1})
	db := DB(ds.DB())
	serial := &Engine{PartialAgg: true, Parallelism: 1}
	for i := 1; i <= 5; i++ {
		q, err := workload.FlatAggQuery(i)
		if err != nil {
			t.Fatal(err)
		}
		want := collectRows(t, func() (*Result, error) { return serial.Run(q, db) })
		for _, par := range []int{2, 8} {
			eng := &Engine{PartialAgg: true, Parallelism: par}
			q2, _ := workload.FlatAggQuery(i)
			got := collectRows(t, func() (*Result, error) { return eng.Run(q2, db) })
			diffOrdered(t, fmt.Sprintf("flat-Q%d/P=%d", i, par), want, got)
		}
	}
}

// TestParallelDescAndOffset covers the drain-order edge (DESC outer
// order reverses the segment drain) and OFFSET pages at P=8.
func TestParallelDescAndOffset(t *testing.T) {
	forceParallelThresholds(t)
	db := bigDB(t, 5000)
	q := func(desc bool, offset, limit int) *query.Query {
		return &query.Query{
			Relations: []string{"Big"},
			OrderBy:   []query.OrderItem{{Attr: "k", Desc: desc}},
			Offset:    offset,
			Limit:     limit,
		}
	}
	serial := &Engine{PartialAgg: true, Parallelism: 1}
	par8 := &Engine{PartialAgg: true, Parallelism: 8}
	for _, c := range []struct {
		desc          bool
		offset, limit int
	}{
		{false, 0, 0}, {true, 0, 0},
		{false, 1234, 100}, {true, 1234, 100},
		{false, 4999, 0}, {true, 4999, 0},
	} {
		name := fmt.Sprintf("desc=%v/offset=%d/limit=%d", c.desc, c.offset, c.limit)
		want := collectRows(t, func() (*Result, error) { return serial.Run(q(c.desc, c.offset, c.limit), db) })
		got := collectRows(t, func() (*Result, error) { return par8.Run(q(c.desc, c.offset, c.limit), db) })
		diffOrdered(t, name, want, got)
	}
}

// windowQuery is spjQuery (ORDER BY k) with an OFFSET/LIMIT window.
func windowQuery(offset, limit int) *query.Query {
	q := spjQuery()
	q.Offset, q.Limit = offset, limit
	return q
}

// enumWorkersDuring returns how many enumeration workers fn spawned.
func enumWorkersDuring(fn func()) int64 {
	before := parEnumWorkers.Load()
	fn()
	return parEnumWorkers.Load() - before
}

// TestParallelWindowTotalCount: TotalCount answers from the serial
// cursor's counts, so even a fan-out-eligible query spawns no worker.
func TestParallelWindowTotalCount(t *testing.T) {
	forceParallelThresholds(t)
	db := bigDB(t, 5000)
	res, err := (&Engine{PartialAgg: true, Parallelism: 8}).Run(spjQuery(), db)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var n int64
	if w := enumWorkersDuring(func() { n, err = res.TotalCount() }); w != 0 {
		t.Fatalf("TotalCount spawned %d enumeration workers, want 0", w)
	}
	if err != nil || n != 5000 {
		t.Fatalf("TotalCount = %d, %v; want 5000", n, err)
	}
}

// TestParallelWindowOffsetSeeks: an OFFSET page at P=8 stays serial and
// takes the Seek route instead of a linear skip over merged workers.
func TestParallelWindowOffsetSeeks(t *testing.T) {
	forceParallelThresholds(t)
	db := bigDB(t, 5000)
	want := collectRows(t, func() (*Result, error) {
		return (&Engine{PartialAgg: true, Parallelism: 1}).Run(windowQuery(4000, 10), db)
	})
	seeks := SeekSkipStats().SeekOffsets
	var got *relation.Relation
	w := enumWorkersDuring(func() {
		got = collectRows(t, func() (*Result, error) {
			return (&Engine{PartialAgg: true, Parallelism: 8}).Run(windowQuery(4000, 10), db)
		})
	})
	if w != 0 {
		t.Fatalf("OFFSET page spawned %d enumeration workers, want 0", w)
	}
	if SeekSkipStats().SeekOffsets == seeks {
		t.Fatal("OFFSET page did not take the Seek route")
	}
	diffOrdered(t, "offset=4000/limit=10", want, got)
	if len(got.Tuples) != 10 || got.Tuples[0][0].Int() != 4000 {
		t.Fatalf("page = %v, want k = 4000..4009", got.Tuples)
	}
}

// TestParallelWindowUnwindowedFansOut: with no window the flat
// projection still fans out, and matches the serial stream row for row.
func TestParallelWindowUnwindowedFansOut(t *testing.T) {
	forceParallelThresholds(t)
	db := bigDB(t, 5000)
	want := collectRows(t, func() (*Result, error) {
		return (&Engine{PartialAgg: true, Parallelism: 1}).Run(spjQuery(), db)
	})
	var got *relation.Relation
	w := enumWorkersDuring(func() {
		got = collectRows(t, func() (*Result, error) {
			return (&Engine{PartialAgg: true, Parallelism: 8}).Run(spjQuery(), db)
		})
	})
	if w == 0 {
		t.Fatal("unwindowed ORDER BY k spawned no enumeration worker")
	}
	diffOrdered(t, "unwindowed", want, got)
}

// TestParallelConcurrentSegmentWorkers runs parallel queries from many
// goroutines against one shared base (the server's shape), under
// -race, and balances the store pool: the filtered query's σ copies the
// base into a pooled store per execution, the operator-free query reads
// the base itself and pools nothing.
func TestParallelConcurrentSegmentWorkers(t *testing.T) {
	forceParallelThresholds(t)
	db := bigDB(t, 8000)
	eng := &Engine{PartialAgg: true, Parallelism: 4}
	for _, tc := range []struct {
		name    string
		q       *query.Query
		returns int64
	}{
		{"filtered", filteredQuery(), 1},
		{"operator-free", spjQuery(), 0},
	} {
		prep, err := eng.Prepare(tc.q, db)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(prep.Plan.Ops) == 0; got != (tc.returns == 0) {
			t.Fatalf("%s: operator-free plan = %v (%s)", tc.name, got, prep.Plan)
		}
		before := storeReturns.Load()
		const workers, reps = 4, 5
		var wg sync.WaitGroup
		errc := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < reps; i++ {
					res, err := prep.Exec(db)
					if err != nil {
						errc <- err
						return
					}
					n, err := res.Count()
					res.Close()
					if err != nil {
						errc <- err
						return
					}
					if n != 8000 {
						errc <- fmt.Errorf("%s: got %d rows, want 8000", tc.name, n)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		if d := storeReturns.Load() - before; d != tc.returns*workers*reps {
			t.Fatalf("%s: store returned %d times for %d executions", tc.name, d, workers*reps)
		}
	}
}

// TestParallelCancelMidMerge cancels mid-stream at P=4 on the fanned-out
// flat path and on the serial grouped and aggregate-ordered paths: the
// stream must stop with context.Canceled, segment workers must be
// joined by Close, and the pooled store returned exactly once.
func TestParallelCancelMidMerge(t *testing.T) {
	forceParallelThresholds(t)
	db := bigDB(t, 20000)
	eng := &Engine{PartialAgg: true, Parallelism: 4}
	cases := []struct {
		name string
		mk   func() *query.Query
	}{
		{"flat-ordered", filteredQuery},
		{"grouped", groupedQuery},
		{"agg-ordered", aggOrderedQuery},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cancelMidStream(t, c.name, func(ctx context.Context) (*Result, error) {
				return eng.RunContext(ctx, c.mk(), db)
			})
		})
	}
}

// TestParallelResultCloseJoinsWorkers closes the Result while a
// parallel Rows is still open: the segment workers must be joined
// before the store is recycled (meaningful under -race), and the open
// Rows must refuse with ErrClosed.
func TestParallelResultCloseJoinsWorkers(t *testing.T) {
	forceParallelThresholds(t)
	db := bigDB(t, 20000)
	eng := &Engine{PartialAgg: true, Parallelism: 4}
	prep, err := eng.Prepare(filteredQuery(), db)
	if err != nil {
		t.Fatal(err)
	}
	before := storeReturns.Load()
	res, err := prep.Exec(db)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended after %d rows", i)
		}
	}
	res.Close() // store recycles now; workers must already be joined
	if rows.Next() {
		t.Fatal("Next succeeded on a closed Result")
	}
	if !errors.Is(rows.Err(), ErrClosed) {
		t.Fatalf("rows.Err() = %v, want ErrClosed", rows.Err())
	}
	rows.Close()
	if d := storeReturns.Load() - before; d != 1 {
		t.Fatalf("store returned %d times, want exactly 1", d)
	}
}

// TestParallelEarlyStopJoinsWorkers stops a ForEach stream early (the
// LIMIT-style exit) at every parallelism level; workers must be joined
// and the pool balanced.
func TestParallelEarlyStopJoinsWorkers(t *testing.T) {
	forceParallelThresholds(t)
	db := bigDB(t, 20000)
	for _, par := range []int{1, 2, 8} {
		eng := &Engine{PartialAgg: true, Parallelism: par}
		before := storeReturns.Load()
		res, err := eng.Run(filteredQuery(), db)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		err = res.ForEach(func(relation.Tuple) bool {
			n++
			return n < 10
		})
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
		if d := storeReturns.Load() - before; d != 1 {
			t.Fatalf("P=%d: store returned %d times, want exactly 1", par, d)
		}
	}
}
