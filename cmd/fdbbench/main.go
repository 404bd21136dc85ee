// Command fdbbench runs the experiments of the paper's Section 6 and
// prints one table per figure: wall-clock medians for every (query,
// engine) series, in the layout of the corresponding plot.
//
// Usage:
//
//	fdbbench -exp all            # every experiment at the default scale
//	fdbbench -exp fig4 -scalemax 8
//	fdbbench -exp size -scalemax 16
//
// Experiments: size (in-text table), fig4, fig5, fig6, fig7, fig8,
// ablation, all. Beyond the paper, "http" load-tests the fdbserver
// query service end to end: an in-process server is driven over HTTP by
// concurrent clients and throughput (queries/sec), latency percentiles
// and the plan-cache hit rate are reported per concurrency level:
//
//	fdbbench -exp http -scale 2 -httpclients 16 -httprequests 2000
//
// "stream" compares the buffered /query transport against NDJSON
// streaming off the engine cursor (rows/sec and time-to-first-row):
//
//	fdbbench -exp stream -scale 4 -json   # writes BENCH_stream.json
//
// "ingest" measures the durable write path: batched INSERT throughput
// into a WAL-backed mutable catalogue, read parity between a plain and
// a never-written mutable catalogue, and Q1 latency while a writer
// streams inserts concurrently:
//
//	fdbbench -exp ingest -scale 2 -json   # writes BENCH_ingest.json
//
// "scatter" measures distributed serving: the catalogue is sharded
// across in-process workers and a distributable statement mix runs
// through a scatter-gather coordinator at 1/2/4 shards, reporting the
// latency curve and speedup vs the 1-shard cluster:
//
//	fdbbench -exp scatter -scale 4 -json   # writes BENCH_scatter.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/plan"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/workload"
)

type bench struct {
	scale        int
	scaleMax     int
	reps         int
	httpClients  int
	httpRequests int
	par          int
	jsonOut      bool
	ds           map[int]*workload.Dataset
	views        map[int]*fops.ARel
	flats        map[int]rdb.DB
	results      []benchResult
}

// measurement is one timed series entry: median wall clock plus the mean
// allocation count per run.
type measurement struct {
	Dur    time.Duration
	Allocs uint64
}

// String renders the median duration (the table cells).
func (m measurement) String() string { return m.Dur.String() }

// benchResult is one machine-readable series entry of BENCH_<exp>.json.
type benchResult struct {
	Name     string  `json:"name"`
	Scale    int     `json:"scale,omitempty"`
	NsPerOp  int64   `json:"ns_op,omitempty"`
	AllocsOp uint64  `json:"allocs_op,omitempty"`
	QPS      float64 `json:"qps,omitempty"`
	P50Ns    int64   `json:"p50_ns,omitempty"`
	P99Ns    int64   `json:"p99_ns,omitempty"`
	Par      int     `json:"par,omitempty"`
	Speedup  float64 `json:"speedup,omitempty"`
}

// rec records one timed series point for the JSON report.
func (b *bench) rec(name string, scale int, m measurement) {
	if !b.jsonOut {
		return
	}
	b.results = append(b.results, benchResult{
		Name: name, Scale: scale, NsPerOp: m.Dur.Nanoseconds(), AllocsOp: m.Allocs,
	})
}

// recHTTP records one throughput point of the http experiment.
func (b *bench) recHTTP(clients int, qps float64, p50, p99 time.Duration) {
	if !b.jsonOut {
		return
	}
	b.results = append(b.results, benchResult{
		Name: fmt.Sprintf("clients=%d", clients), QPS: qps,
		P50Ns: p50.Nanoseconds(), P99Ns: p99.Nanoseconds(),
	})
}

// flushJSON writes the recorded results of one experiment to
// BENCH_<exp>.json in the working directory and clears the collector.
func (b *bench) flushJSON(exp string) {
	if !b.jsonOut {
		return
	}
	out := struct {
		Experiment string        `json:"experiment"`
		Scale      int           `json:"scale"`
		Reps       int           `json:"reps"`
		Results    []benchResult `json:"results"`
	}{Experiment: exp, Scale: b.scale, Reps: b.reps, Results: b.results}
	if out.Results == nil {
		out.Results = []benchResult{}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		log.Fatalf("encoding BENCH_%s.json: %v", exp, err)
	}
	name := fmt.Sprintf("BENCH_%s.json", exp)
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		log.Fatalf("writing %s: %v", name, err)
	}
	fmt.Printf("wrote %s (%d series)\n", name, len(b.results))
	b.results = nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fdbbench: ")
	exp := flag.String("exp", "all", "experiment: size|fig4|fig5|fig6|fig7|fig8|ablation|http|stream|parallel|coldstart|offset|scale|ingest|scatter|all")
	scale := flag.Int("scale", 4, "scale factor for single-scale experiments")
	scaleMax := flag.Int("scalemax", 8, "maximum scale for the scale sweeps (size, fig4)")
	reps := flag.Int("reps", 3, "repetitions per measurement (median reported)")
	httpClients := flag.Int("httpclients", 8, "maximum client concurrency for the http experiment")
	httpRequests := flag.Int("httprequests", 800, "requests per concurrency level for the http experiment")
	par := flag.Int("par", 8, "maximum intra-query parallelism for the parallel experiment")
	jsonOut := flag.Bool("json", false, "also write machine-readable BENCH_<exp>.json per experiment (ns/op, allocs/op, qps, p50/p99)")
	flag.Parse()

	b := &bench{
		scale:        *scale,
		scaleMax:     *scaleMax,
		reps:         *reps,
		httpClients:  *httpClients,
		httpRequests: *httpRequests,
		par:          *par,
		jsonOut:      *jsonOut,
		ds:           map[int]*workload.Dataset{},
		views:        map[int]*fops.ARel{},
		flats:        map[int]rdb.DB{},
	}
	run := map[string]func(){
		"size": b.expSize, "fig4": b.expFig4, "fig5": b.expFig5,
		"fig6": b.expFig6, "fig7": b.expFig7, "fig8": b.expFig8,
		"ablation": b.expAblation, "http": b.expHTTP, "stream": b.expStream,
		"parallel": b.expParallel, "coldstart": b.expColdstart,
		"offset": b.expOffset, "scale": b.expScale, "ingest": b.expIngest,
		"scatter": b.expScatter,
	}
	doOne := func(name string, fn func()) {
		fn()
		b.flushJSON(name)
	}
	if *exp == "all" {
		for _, name := range []string{"size", "fig4", "fig5", "fig6", "fig7", "fig8", "ablation", "http", "stream", "parallel", "coldstart", "offset", "scale", "ingest"} {
			doOne(name, run[name])
		}
		return
	}
	fn, ok := run[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q", *exp)
	}
	doOne(*exp, fn)
}

func (b *bench) dataset(s int) *workload.Dataset {
	if d, ok := b.ds[s]; ok {
		return d
	}
	d := workload.Generate(workload.Config{Scale: s})
	b.ds[s] = d
	return d
}

func (b *bench) view(s int) *fops.ARel {
	if v, ok := b.views[s]; ok {
		return v
	}
	v, err := b.dataset(s).FactorisedR1()
	if err != nil {
		log.Fatal(err)
	}
	b.views[s] = v
	return v
}

func (b *bench) flatDB(s int) rdb.DB {
	if db, ok := b.flats[s]; ok {
		return db
	}
	d := b.dataset(s)
	r1, err := d.FlatR1()
	if err != nil {
		log.Fatal(err)
	}
	r2, err := d.FlatR2()
	if err != nil {
		log.Fatal(err)
	}
	r3, err := d.R3()
	if err != nil {
		log.Fatal(err)
	}
	db := rdb.DB{"R1": r1, "R2": r2, "R3": r3}
	b.flats[s] = db
	return db
}

// timeIt returns the median wall-clock time of reps runs, plus the mean
// heap-allocation count per run. A GC runs before each repetition so
// that garbage from other experiments (for example resident flat views)
// is not charged to this measurement.
func (b *bench) timeIt(fn func()) measurement {
	times := make([]time.Duration, 0, b.reps)
	var ms runtime.MemStats
	var allocs uint64
	for i := 0; i < b.reps; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		fn()
		times = append(times, time.Since(start))
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return measurement{
		Dur:    times[len(times)/2],
		Allocs: allocs / uint64(b.reps),
	}
}

func (b *bench) sweep() []int {
	var out []int
	for s := 1; s <= b.scaleMax; s *= 2 {
		out = append(out, s)
	}
	return out
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func row(cells ...string) {
	fmt.Println(strings.Join(cells, "\t"))
}

// expSize reproduces the in-text size table: |R1| vs singletons of the
// factorisation over T, by scale.
func (b *bench) expSize() {
	header("E0: representation sizes (paper §6: 280M tuples vs 4.2M singletons at s=32)")
	row("scale", "join-tuples", "join-singletons", "fact-singletons", "gap")
	for _, s := range b.sweep() {
		var rep *workload.SizeReport
		// Time the size computation itself: it materialises the
		// factorised view bottom-up (builds + merges + swap), so the
		// series doubles as a view-construction benchmark.
		m := b.timeIt(func() {
			var err error
			rep, err = b.dataset(s).Sizes()
			if err != nil {
				log.Fatal(err)
			}
		})
		b.rec("materialise-R1", s, m)
		row(fmt.Sprint(s), fmt.Sprint(rep.JoinTuples), fmt.Sprint(rep.JoinSingletons),
			fmt.Sprint(rep.FactSingletons),
			fmt.Sprintf("%.1f×", float64(rep.JoinTuples)/float64(rep.FactSingletons)))
	}
}

func (b *bench) runFDBView(s int, q *query.Query) measurement {
	view := b.view(s)
	cat := b.dataset(s).Catalog()
	return b.timeIt(func() {
		res, err := engine.New().RunOnView(q, view, cat)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := res.Count(); err != nil {
			log.Fatal(err)
		}
	})
}

func (b *bench) runFDBViewFO(s int, q *query.Query) measurement {
	view := b.view(s)
	cat := b.dataset(s).Catalog()
	return b.timeIt(func() {
		res, err := engine.New().RunOnView(q, view, cat)
		if err != nil {
			log.Fatal(err)
		}
		_ = res.Singletons()
	})
}

func (b *bench) runRDB(s int, q *query.Query, mode rdb.GroupMode, eager bool) measurement {
	db := b.flatDB(s)
	return b.timeIt(func() {
		e := &rdb.Engine{Grouping: mode, Eager: eager}
		if _, err := e.Run(q, db); err != nil {
			log.Fatal(err)
		}
	})
}

// expFig4 reproduces Figure 4: Q2 and Q3 vs scale.
func (b *bench) expFig4() {
	header("Figure 4: wall-clock vs scale on the (factorised) materialised view R1")
	row("query", "scale", "FDB", "RDB-sort(≈SQLite)", "RDB-hash(≈PSQL)")
	for _, tc := range []struct {
		name string
		mk   func() *query.Query
	}{{"Q2", workload.Q2}, {"Q3", workload.Q3}} {
		for _, s := range b.sweep() {
			fdbT := b.runFDBView(s, tc.mk())
			sortT := b.runRDB(s, tc.mk(), rdb.GroupSort, false)
			hashT := b.runRDB(s, tc.mk(), rdb.GroupHash, false)
			b.rec(tc.name+"/FDB", s, fdbT)
			b.rec(tc.name+"/RDB-sort", s, sortT)
			b.rec(tc.name+"/RDB-hash", s, hashT)
			row(tc.name, fmt.Sprint(s), fdbT.String(), sortT.String(), hashT.String())
			if s != b.scale {
				delete(b.flats, s) // bound resident memory
			}
		}
	}
}

// expFig5 reproduces Figure 5: AGG queries on the factorised view.
func (b *bench) expFig5() {
	header(fmt.Sprintf("Figure 5: AGG queries on the materialised view R1 (scale %d)", b.scale))
	row("query", "FDB f/o", "FDB", "RDB-sort(≈SQLite)", "RDB-hash(≈PSQL)")
	for i := 1; i <= 5; i++ {
		q := func() *query.Query { qq, _ := workload.AggQuery(i); return qq }
		name := fmt.Sprintf("Q%d", i)
		fo := b.runFDBViewFO(b.scale, q())
		fdbT := b.runFDBView(b.scale, q())
		sortT := b.runRDB(b.scale, q(), rdb.GroupSort, false)
		hashT := b.runRDB(b.scale, q(), rdb.GroupHash, false)
		b.rec(name+"/FDB-fo", b.scale, fo)
		b.rec(name+"/FDB", b.scale, fdbT)
		b.rec(name+"/RDB-sort", b.scale, sortT)
		b.rec(name+"/RDB-hash", b.scale, hashT)
		row(name, fo.String(), fdbT.String(), sortT.String(), hashT.String())
	}
}

// expFig6 reproduces Figure 6: AGG queries on flat input.
func (b *bench) expFig6() {
	header(fmt.Sprintf("Figure 6: AGG queries on flat input (scale %d); man = eager aggregation", b.scale))
	row("query", "FDB", "RDB", "RDB man")
	d := b.dataset(b.scale)
	baseDB := rdb.DB(d.DB())
	engDB := engine.DB(d.DB())
	for i := 1; i <= 5; i++ {
		q := func() *query.Query { qq, _ := workload.FlatAggQuery(i); return qq }
		fdbT := b.timeIt(func() {
			res, err := engine.New().Run(q(), engDB)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := res.Count(); err != nil {
				log.Fatal(err)
			}
		})
		lazyT := b.timeIt(func() {
			if _, err := (&rdb.Engine{}).Run(q(), baseDB); err != nil {
				log.Fatal(err)
			}
		})
		manT := b.timeIt(func() {
			if _, err := (&rdb.Engine{Eager: true}).Run(q(), baseDB); err != nil {
				log.Fatal(err)
			}
		})
		b.rec(fmt.Sprintf("Q%d/FDB", i), b.scale, fdbT)
		b.rec(fmt.Sprintf("Q%d/RDB", i), b.scale, lazyT)
		b.rec(fmt.Sprintf("Q%d/RDB-man", i), b.scale, manT)
		row(fmt.Sprintf("Q%d", i), fdbT.String(), lazyT.String(), manT.String())
	}
}

// expFig7 reproduces Figure 7: AGG+ORD queries on the view.
func (b *bench) expFig7() {
	header(fmt.Sprintf("Figure 7: AGG+ORD queries on the materialised view R1 (scale %d)", b.scale))
	row("query", "FDB", "RDB-sort(≈SQLite)", "RDB-hash(≈PSQL)")
	for _, tc := range []struct {
		name string
		mk   func() *query.Query
	}{{"Q6", workload.Q6}, {"Q7", workload.Q7}, {"Q8", workload.Q8}, {"Q9", workload.Q9}} {
		fdbT := b.runFDBView(b.scale, tc.mk())
		sortT := b.runRDB(b.scale, tc.mk(), rdb.GroupSort, false)
		hashT := b.runRDB(b.scale, tc.mk(), rdb.GroupHash, false)
		b.rec(tc.name+"/FDB", b.scale, fdbT)
		b.rec(tc.name+"/RDB-sort", b.scale, sortT)
		b.rec(tc.name+"/RDB-hash", b.scale, hashT)
		row(tc.name, fdbT.String(), sortT.String(), hashT.String())
	}
}

// expFig8 reproduces Figure 8: ORD queries with and without LIMIT 10.
func (b *bench) expFig8() {
	header(fmt.Sprintf("Figure 8: ORD queries (scale %d); lim = LIMIT 10", b.scale))
	row("query", "FDB", "RDB", "FDB lim", "RDB lim")
	d := b.dataset(b.scale)
	fr3, err := d.FactorisedR3()
	if err != nil {
		log.Fatal(err)
	}
	cat := d.Catalog()
	flat := b.flatDB(b.scale)
	cases := []struct {
		name string
		mk   func(int) *query.Query
		view *fops.ARel
	}{
		{"Q10", workload.Q10, b.view(b.scale)},
		{"Q11", workload.Q11, b.view(b.scale)},
		{"Q12", workload.Q12, b.view(b.scale)},
		{"Q13", workload.Q13, fr3},
	}
	for _, tc := range cases {
		runFDB := func(limit int) measurement {
			return b.timeIt(func() {
				res, err := engine.New().RunOnView(tc.mk(limit), tc.view, cat)
				if err != nil {
					log.Fatal(err)
				}
				if _, err := res.Count(); err != nil {
					log.Fatal(err)
				}
			})
		}
		runBase := func(limit int) measurement {
			if tc.name == "Q10" {
				// The baselines scan R2 in its stored order — no sort.
				// Touch every tuple's first field so the scan is real.
				r2 := flat["R2"]
				return b.timeIt(func() {
					count := 0
					var sink int64
					for _, t := range r2.Tuples {
						sink += t[0].Int()
						count++
						if limit > 0 && count >= limit {
							break
						}
					}
					_ = sink
				})
			}
			return b.timeIt(func() {
				if _, err := (&rdb.Engine{}).Run(tc.mk(limit), flat); err != nil {
					log.Fatal(err)
				}
			})
		}
		f0, r0, f10, r10 := runFDB(0), runBase(0), runFDB(10), runBase(10)
		b.rec(tc.name+"/FDB", b.scale, f0)
		b.rec(tc.name+"/RDB", b.scale, r0)
		b.rec(tc.name+"/FDB-lim", b.scale, f10)
		b.rec(tc.name+"/RDB-lim", b.scale, r10)
		row(tc.name, f0.String(), r0.String(), f10.String(), r10.String())
	}
}

// expAblation runs the three design ablations (A1–A3 of DESIGN.md).
func (b *bench) expAblation() {
	header(fmt.Sprintf("A1: partial aggregation on/off (scale %d)", b.scale))
	row("query", "eager (partial γ)", "lazy (γ after restructuring)")
	view := b.view(b.scale)
	cat := b.dataset(b.scale).Catalog()
	for _, tc := range []struct {
		name string
		mk   func() *query.Query
	}{{"Q2", workload.Q2}, {"Q4", workload.Q4}, {"Q5", workload.Q5}} {
		run := func(eager bool) measurement {
			return b.timeIt(func() {
				e := &engine.Engine{PartialAgg: eager}
				res, err := e.RunOnView(tc.mk(), view, cat)
				if err != nil {
					log.Fatal(err)
				}
				if _, err := res.Count(); err != nil {
					log.Fatal(err)
				}
			})
		}
		eagerT, lazyT := run(true), run(false)
		b.rec(tc.name+"/eager", b.scale, eagerT)
		b.rec(tc.name+"/lazy", b.scale, lazyT)
		row(tc.name, eagerT.String(), lazyT.String())
	}

	header(fmt.Sprintf("A2: partial restructuring vs rebuild for Q12 (scale %d)", b.scale))
	row("strategy", "time")
	swapT := b.runFDBView(b.scale, workload.Q12(0))
	flatR2 := b.flatDB(b.scale)["R2"]
	rebuildT := b.timeIt(func() {
		t := ftree.New()
		t.NewRelationPath("date", "package", "item", "customer", "price")
		fr, err := fops.FromRelationStoreUnchecked(frep.NewStore(), flatR2, t)
		if err != nil {
			log.Fatal(err)
		}
		_ = fr.Singletons()
	})
	b.rec("Q12/swap", b.scale, swapT)
	b.rec("Q12/rebuild", b.scale, rebuildT)
	row("swap (FDB)", swapT.String())
	row("rebuild from flat", rebuildT.String())

	header("A3: greedy vs exhaustive optimiser (plan time and cost)")
	row("query", "greedy-time", "greedy-cost", "exhaustive-time", "exhaustive-cost")
	tree := b.view(b.scale).Tree
	for _, tc := range []struct {
		name string
		mk   func() *query.Query
	}{{"Q2", workload.Q2}, {"Q3", workload.Q3}} {
		var gCost, eCost float64
		gT := b.timeIt(func() {
			p := &plan.Planner{Catalog: cat, PartialAgg: true}
			pl, err := p.Plan(tree, tc.mk())
			if err != nil {
				log.Fatal(err)
			}
			gCost = pl.Cost
		})
		eT := b.timeIt(func() {
			p := &plan.Planner{Catalog: cat, PartialAgg: true, Exhaustive: true, MaxStates: 30000}
			pl, err := p.Plan(tree, tc.mk())
			if err != nil {
				log.Fatal(err)
			}
			eCost = pl.Cost
		})
		b.rec(tc.name+"/plan-greedy", b.scale, gT)
		b.rec(tc.name+"/plan-exhaustive", b.scale, eT)
		row(tc.name, gT.String(), fmt.Sprintf("%.0f", gCost), eT.String(), fmt.Sprintf("%.0f", eCost))
	}
}
