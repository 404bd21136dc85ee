package main

// The "parallel" experiment measures intra-query parallel execution:
// the same aggregate/count/grouped/enumeration workloads run on the
// arena view at increasing Engine.Parallelism, and the curve of
// speedup vs P (with p50/p99 latencies) lands in BENCH_parallel.json.
// The size floors that keep small production queries serial are
// lowered for the measurement so the segmentation engages at any
// -scale; results are still end-to-end query latencies.

import (
	"fmt"
	"log"
	"runtime"
	"sort"
	"time"

	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/workload"
)

// parallelSamples is how many timed runs back each (workload, P) point;
// p50/p99 come from this sample set.
const parallelSamples = 15

// countQuery is the global COUNT(*) over the view.
func countQuery() *query.Query {
	return &query.Query{
		Relations:  []string{"R1"},
		Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}},
	}
}

// expParallel runs the intra-query parallel scaling curve.
func (b *bench) expParallel() {
	// Let the segmentation engage regardless of -scale: the floors
	// exist to keep tiny production queries serial, not to gate a
	// scaling measurement. Only the *value* floors are lowered — the
	// work floors (frep.MinParallelEvalWork, fops.MinParallelRebuildWork,
	// counted in represented tuples via the ranked index) and the
	// grouped-cursor floor (engine.MinParallelGroupRows) stay at their
	// production settings deliberately: they encode the measured
	// crossover below which γ-heavy fan-out loses to serial evaluation,
	// and this experiment exists to verify that production behaviour
	// (scale 1 sums stay serial with speedup ≈ 1; past the crossover the
	// curve climbs).
	oldEval, oldRebuild, oldEnum := frep.MinParallelEvalValues, fops.MinParallelRebuildValues, engine.MinParallelEnumRows
	frep.MinParallelEvalValues = 16
	fops.MinParallelRebuildValues = 16
	engine.MinParallelEnumRows = 16
	defer func() {
		frep.MinParallelEvalValues, fops.MinParallelRebuildValues, engine.MinParallelEnumRows = oldEval, oldRebuild, oldEnum
	}()

	d := b.dataset(b.scale)
	cat := d.Catalog()
	view, err := d.FactorisedR1()
	if err != nil {
		log.Fatal(err)
	}
	// Rank the view like production catalogues and shared executions:
	// weighted (count-balanced) parallel splits, ranked OFFSET seeks and
	// the O(1) COUNT(*) path all key off the subtree-count index.
	if err := view.Store.BuildRanks(); err != nil {
		log.Fatal(err)
	}
	// And the column index, so the vectorised kernels engage exactly as
	// they do on production executions.
	view.Store.BuildCols()
	header(fmt.Sprintf("Parallel: intra-query scaling on the arena view R1 (scale %d, GOMAXPROCS %d)",
		b.scale, runtime.GOMAXPROCS(0)))
	row("workload", "P", "p50", "p99", "speedup")

	workloads := []struct {
		name string
		mk   func() *query.Query
	}{
		{"count", countQuery},
		{"sum-global", workload.Q5},
		{"sum-grouped", workload.Q2},
		{"agg-ordered", workload.Q7},
		{"enumerate", func() *query.Query { return workload.Q11(0) }},
	}
	levels := []int{1, 2, 4, 8}
	for _, wl := range workloads {
		var baseline time.Duration
		for _, p := range levels {
			if p > b.par {
				break
			}
			eng := &engine.Engine{PartialAgg: true, Parallelism: p}
			lats := make([]time.Duration, 0, parallelSamples)
			for i := 0; i < parallelSamples; i++ {
				q := wl.mk()
				start := time.Now()
				res, err := eng.RunOnView(q, view, cat)
				if err != nil {
					log.Fatal(err)
				}
				if _, err := res.Count(); err != nil {
					log.Fatal(err)
				}
				res.Close()
				lats = append(lats, time.Since(start))
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			p50 := lats[len(lats)/2]
			p99 := lats[(len(lats)*99)/100]
			if p == 1 {
				baseline = p50
			}
			speedup := float64(baseline) / float64(p50)
			name := fmt.Sprintf("%s/P=%d", wl.name, p)
			row(wl.name, fmt.Sprint(p), p50.String(), p99.String(), fmt.Sprintf("%.2f×", speedup))
			if b.jsonOut {
				b.results = append(b.results, benchResult{
					Name:    name,
					Scale:   b.scale,
					Par:     p,
					NsPerOp: p50.Nanoseconds(),
					P50Ns:   p50.Nanoseconds(),
					P99Ns:   p99.Nanoseconds(),
					Speedup: speedup,
				})
			}
		}
	}
	st := engine.ParallelStats()
	fmt.Printf("workers spawned: enum=%d op=%d eval=%d (parallel queries: %d)\n",
		st.EnumWorkers, st.OpWorkers, st.EvalWorkers, st.Queries)
}
