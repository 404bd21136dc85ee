// Benchmarks reproducing every figure of the paper's experimental
// evaluation (Section 6). Each benchmark family regenerates one figure's
// series, FDB against the rdb flat baselines:
//
//	go test -run '^$' -bench 'Fig|Ablation|SizeGrowth' .
//
// The default scale factor is 4 (override with FDB_BENCH_SCALE); Figure 4
// and the size table sweep scales 1,2,4 (extend with FDB_BENCH_SCALE_MAX).
// Flat materialisations grow as 256·s⁴ tuples — keep scales modest on
// small machines.
package fdb_test

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/plan"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/workload"
)

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func benchScale() int    { return envInt("FDB_BENCH_SCALE", 4) }
func benchScaleMax() int { return envInt("FDB_BENCH_SCALE_MAX", 4) }
func sweepScales() []int {
	max := benchScaleMax()
	var out []int
	for s := 1; s <= max; s *= 2 {
		out = append(out, s)
	}
	return out
}

// fixture caches the per-scale dataset and materialised views.
type fixture struct {
	ds     *workload.Dataset
	view   *fops.ARel // factorised R1 over the paper's f-tree T
	cat    []ftree.CatalogRelation
	flatMu sync.Mutex
	flatR1 *relation.Relation
	flatR2 *relation.Relation
	r3     *relation.Relation
	fr3    *fops.ARel
}

var (
	fixtures   = map[int]*fixture{}
	fixturesMu sync.Mutex
)

func getFixture(b *testing.B, scale int) *fixture {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if f, ok := fixtures[scale]; ok {
		return f
	}
	ds := workload.Generate(workload.Config{Scale: scale})
	view, err := ds.FactorisedR1()
	if err != nil {
		b.Fatal(err)
	}
	fr3, err := ds.FactorisedR3()
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{ds: ds, view: view, cat: ds.Catalog(), fr3: fr3}
	fixtures[scale] = f
	return f
}

// flat materialises the flat views lazily (they are 256·s⁴ tuples).
func (f *fixture) flat(b *testing.B) (*relation.Relation, *relation.Relation, *relation.Relation) {
	b.Helper()
	f.flatMu.Lock()
	defer f.flatMu.Unlock()
	if f.flatR1 == nil {
		r1, err := f.ds.FlatR1()
		if err != nil {
			b.Fatal(err)
		}
		r2, err := f.ds.FlatR2()
		if err != nil {
			b.Fatal(err)
		}
		r3, err := f.ds.R3()
		if err != nil {
			b.Fatal(err)
		}
		f.flatR1, f.flatR2, f.r3 = r1, r2, r3
	}
	return f.flatR1, f.flatR2, f.r3
}

func (f *fixture) rdbDB(b *testing.B) rdb.DB {
	r1, r2, r3 := f.flat(b)
	return rdb.DB{"R1": r1, "R2": r2, "R3": r3}
}

// runFDBView runs a query on the factorised view and enumerates the full
// flat output (the paper's "FDB" mode).
func runFDBView(b *testing.B, f *fixture, q *query.Query) {
	b.Helper()
	e := engine.New()
	res, err := e.RunOnView(q, f.view, f.cat)
	if err != nil {
		b.Fatal(err)
	}
	defer res.Close()
	if _, err := res.Count(); err != nil {
		b.Fatal(err)
	}
}

// runFDBViewFO runs a query on the factorised view producing factorised
// output only ("FDB f/o": no enumeration).
func runFDBViewFO(b *testing.B, f *fixture, q *query.Query) {
	b.Helper()
	e := engine.New()
	res, err := e.RunOnView(q, f.view, f.cat)
	if err != nil {
		b.Fatal(err)
	}
	_ = res.Singletons()
	res.Close()
}

func runRDB(b *testing.B, db rdb.DB, q *query.Query, mode rdb.GroupMode, eager bool) {
	b.Helper()
	e := &rdb.Engine{Grouping: mode, Eager: eager}
	out, err := e.Run(q, db)
	if err != nil {
		b.Fatal(err)
	}
	_ = out.Cardinality()
}

// --- E0: the in-text size table (join ~s⁴ vs factorisation ~s³) -------

func BenchmarkSizeGrowth(b *testing.B) {
	for _, s := range sweepScales() {
		b.Run("scale="+strconv.Itoa(s), func(b *testing.B) {
			f := getFixture(b, s)
			var rep *workload.SizeReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = f.ds.Sizes()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.JoinTuples), "join-tuples")
			b.ReportMetric(float64(rep.JoinSingletons), "join-singletons")
			b.ReportMetric(float64(rep.FactSingletons), "fact-singletons")
			b.ReportMetric(float64(rep.JoinTuples)/float64(rep.FactSingletons), "gap")
		})
	}
}

// --- Figure 4: Q2 and Q3 on the factorised view vs the baselines, by
// scale --------------------------------------------------------------

func benchFig4(b *testing.B, mk func() *query.Query) {
	for _, s := range sweepScales() {
		f := getFixture(b, s)
		b.Run("FDB/scale="+strconv.Itoa(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runFDBView(b, f, mk())
			}
		})
		db := f.rdbDB(b)
		b.Run("RDBsort/scale="+strconv.Itoa(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runRDB(b, db, mk(), rdb.GroupSort, false)
			}
		})
		b.Run("RDBhash/scale="+strconv.Itoa(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runRDB(b, db, mk(), rdb.GroupHash, false)
			}
		})
		// Release the flat materialisations of non-default scales so
		// resident 256·s⁴-tuple views do not distort later timings via
		// GC pressure.
		if s != benchScale() {
			f.flatMu.Lock()
			f.flatR1, f.flatR2, f.r3 = nil, nil, nil
			f.flatMu.Unlock()
		}
	}
}

func BenchmarkFig4_Q2(b *testing.B) { benchFig4(b, workload.Q2) }
func BenchmarkFig4_Q3(b *testing.B) { benchFig4(b, workload.Q3) }

// --- Figure 5: AGG queries Q1–Q5 on the materialised (factorised) view
// ---------------------------------------------------------------------

func BenchmarkFig5(b *testing.B) {
	f := getFixture(b, benchScale())
	db := f.rdbDB(b)
	for i := 1; i <= 5; i++ {
		q := func() *query.Query {
			qq, err := workload.AggQuery(i)
			if err != nil {
				b.Fatal(err)
			}
			return qq
		}
		name := "Q" + strconv.Itoa(i)
		b.Run(name+"/FDBfo", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				runFDBViewFO(b, f, q())
			}
		})
		b.Run(name+"/FDB", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				runFDBView(b, f, q())
			}
		})
		b.Run(name+"/RDBsort", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				runRDB(b, db, q(), rdb.GroupSort, false)
			}
		})
		b.Run(name+"/RDBhash", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				runRDB(b, db, q(), rdb.GroupHash, false)
			}
		})
	}
}

// --- Figure 6: AGG queries on flat input (no materialised view), with
// the engines' own plans and manually optimised (eager) plans ----------

func BenchmarkFig6(b *testing.B) {
	f := getFixture(b, benchScale())
	baseDB := rdb.DB(f.ds.DB())
	engDB := engine.DB(f.ds.DB())
	for i := 1; i <= 5; i++ {
		q := func() *query.Query {
			qq, err := workload.FlatAggQuery(i)
			if err != nil {
				b.Fatal(err)
			}
			return qq
		}
		name := "Q" + strconv.Itoa(i)
		b.Run(name+"/FDB", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				// Fresh relation values over the same tuples: a relation
				// keeps the bases its first query factorises, and the
				// figure times FDB on flat input, factorisation included.
				db := make(engine.DB, len(engDB))
				for name, rel := range engDB {
					db[name] = &relation.Relation{Name: rel.Name, Attrs: rel.Attrs, Tuples: rel.Tuples}
				}
				res, err := engine.New().Run(q(), db)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := res.Count(); err != nil {
					b.Fatal(err)
				}
				res.Close()
			}
		})
		b.Run(name+"/RDBlazy", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				runRDB(b, baseDB, q(), rdb.GroupSort, false)
			}
		})
		b.Run(name+"/RDBman", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				runRDB(b, baseDB, q(), rdb.GroupSort, true)
			}
		})
	}
}

// --- Figure 7: AGG+ORD queries Q6–Q9 on the factorised view -----------

func BenchmarkFig7(b *testing.B) {
	f := getFixture(b, benchScale())
	db := f.rdbDB(b)
	queries := map[string]func() *query.Query{
		"Q6": workload.Q6, "Q7": workload.Q7, "Q8": workload.Q8, "Q9": workload.Q9,
	}
	for _, name := range []string{"Q6", "Q7", "Q8", "Q9"} {
		mk := queries[name]
		b.Run(name+"/FDB", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				runFDBView(b, f, mk())
			}
		})
		b.Run(name+"/RDBsort", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				runRDB(b, db, mk(), rdb.GroupSort, false)
			}
		})
		b.Run(name+"/RDBhash", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				runRDB(b, db, mk(), rdb.GroupHash, false)
			}
		})
	}
}

// --- Figure 8: ORD queries Q10–Q13 with and without LIMIT 10 ----------

func BenchmarkFig8(b *testing.B) {
	f := getFixture(b, benchScale())
	_, flatR2, _ := f.flat(b)
	db := f.rdbDB(b)
	cases := []struct {
		name string
		mk   func(limit int) *query.Query
		view *fops.ARel
	}{
		{"Q10", workload.Q10, f.view},
		{"Q11", workload.Q11, f.view},
		{"Q12", workload.Q12, f.view},
		{"Q13", workload.Q13, f.fr3},
	}
	for _, tc := range cases {
		for _, limit := range []int{0, 10} {
			suffix := ""
			if limit > 0 {
				suffix = "lim"
			}
			mk := tc.mk
			view := tc.view
			lim := limit
			b.Run(tc.name+suffix+"/FDB", func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					e := engine.New()
					res, err := e.RunOnView(mk(lim), view, f.cat)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := res.Count(); err != nil {
						b.Fatal(err)
					}
					res.Close()
				}
			})
			if tc.name == "Q10" {
				// The baselines need no sort for Q10 — they scan the
				// already-sorted R2 (Experiment 4). Touch each tuple so
				// the scan is not optimised away.
				b.Run(tc.name+suffix+"/RDB", func(b *testing.B) {
					var sink int64
					for n := 0; n < b.N; n++ {
						count := 0
						for _, t := range flatR2.Tuples {
							sink += t[0].Int()
							count++
							if lim > 0 && count >= lim {
								break
							}
						}
					}
					_ = sink
				})
				continue
			}
			b.Run(tc.name+suffix+"/RDB", func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					runRDB(b, db, mk(lim), rdb.GroupSort, false)
				}
			})
		}
	}
}

// --- A1: ablation — partial (eager) aggregation on/off inside FDB -----

func BenchmarkAblationPartialAgg(b *testing.B) {
	f := getFixture(b, benchScale())
	for _, name := range []string{"Q2", "Q4", "Q5"} {
		mk := map[string]func() *query.Query{
			"Q2": workload.Q2, "Q4": workload.Q4, "Q5": workload.Q5,
		}[name]
		for _, eager := range []bool{true, false} {
			mode := "eager"
			if !eager {
				mode = "lazy"
			}
			e := &engine.Engine{PartialAgg: eager}
			b.Run(name+"/"+mode, func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					res, err := e.RunOnView(mk(), f.view, f.cat)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := res.Count(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- A2: ablation — partial restructuring (swap) vs re-factorising the
// view from scratch for a new order ------------------------------------

func BenchmarkAblationRestructure(b *testing.B) {
	f := getFixture(b, benchScale())
	_, flatR2, _ := f.flat(b)
	b.Run("Q12/swap", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			runFDBView(b, f, workload.Q12(0))
		}
	})
	b.Run("Q12/rebuild", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			// Factorise R2 from scratch over a linear path in the target
			// order, then enumerate.
			t := ftree.New()
			t.NewRelationPath("date", "package", "item", "customer", "price")
			st := frep.NewStore()
			roots, err := frep.BuildStoreUnchecked(st, flatR2, t)
			if err != nil {
				b.Fatal(err)
			}
			en, err := frep.NewStoreEnumerator(t, st, roots, nil)
			if err != nil {
				b.Fatal(err)
			}
			count := 0
			for en.Next() {
				count++
			}
		}
	})
}

// --- A3: ablation — greedy vs exhaustive (Dijkstra) optimiser ---------

func BenchmarkAblationOptimiser(b *testing.B) {
	f := getFixture(b, benchScale())
	for _, tc := range []struct {
		name string
		mk   func() *query.Query
	}{
		{"Q2", workload.Q2}, {"Q3", workload.Q3},
	} {
		tree := f.view.Tree
		b.Run(tc.name+"/greedy", func(b *testing.B) {
			var cost float64
			for n := 0; n < b.N; n++ {
				p := &plan.Planner{Catalog: f.cat, PartialAgg: true}
				pl, err := p.Plan(tree, tc.mk())
				if err != nil {
					b.Fatal(err)
				}
				cost = pl.Cost
			}
			b.ReportMetric(cost, "plan-cost")
		})
		b.Run(tc.name+"/exhaustive", func(b *testing.B) {
			var cost float64
			for n := 0; n < b.N; n++ {
				p := &plan.Planner{Catalog: f.cat, PartialAgg: true, Exhaustive: true, MaxStates: 30000}
				pl, err := p.Plan(tree, tc.mk())
				if err != nil {
					b.Fatal(err)
				}
				cost = pl.Cost
			}
			b.ReportMetric(cost, "plan-cost")
		})
	}
}

// --- E6 (Experiment 5): RDB's two grouping modes stand in for SQLite
// (sort-based) and PostgreSQL (hash-based) ------------------------------

func BenchmarkExp5_GroupingModes(b *testing.B) {
	f := getFixture(b, benchScale())
	db := f.rdbDB(b)
	for _, tc := range []struct {
		name string
		mk   func() *query.Query
	}{
		{"Q2", workload.Q2}, {"Q3", workload.Q3},
	} {
		b.Run(tc.name+"/sort", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				runRDB(b, db, tc.mk(), rdb.GroupSort, false)
			}
		})
		b.Run(tc.name+"/hash", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				runRDB(b, db, tc.mk(), rdb.GroupHash, false)
			}
		})
	}
}
