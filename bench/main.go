// Command bench is the repository's benchmark: seven served workloads
// driven over loopback HTTP through the real internal/server (and
// internal/cluster coordinator, and a MutableCatalog), every answer
// checked against the flat baseline, end-to-end metrics from a measured
// closed loop with tracing off and per-layer metrics from a separate
// traced replay. README.md in this directory defines every workload
// and metric; BENCHMARK.json at the repository root is its contract
// with the driver.
//
//	go run -C bench . -workload agg -seed 7 -seconds 10 -trace 1
//	go run -C bench .            # all seven workloads, both runs
//	go run -C bench . -agree     # the suite twice; differences vs bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// options are the command-line settings of a run.
type options struct {
	seed     int64
	duration time.Duration
	trace    bool
	scale    int // 0: each workload's own scale; set by the smoke test only
	out      string
}

func (r *run) scale() int {
	if r.opts.scale > 0 {
		return r.opts.scale
	}
	return r.w.scale
}

// workloads are the seven workloads, in reporting order. The "why" lines
// are repeated in BENCHMARK.json.
var workloads = []*workload{
	{
		name: "agg", scale: 6, warmRounds: 3, traceRounds: 15, httpKind: "warm",
		why:      "paper Q2-Q9 over Orders x Packages x Items, plan cache warm: f-plan operators and aggregate evaluation dominate",
		generate: generateBase, setup: setupCatalogue, statements: aggStatements,
	},
	{
		name: "ord", scale: 6, warmRounds: 3, traceRounds: 15, httpKind: "warm",
		why:      "paper Q10-Q13 with LIMIT 10 at offset 0 and deep offsets: restructuring, slab copy and ranked seek; outputs are 10 rows",
		generate: generateBase, setup: setupCatalogue, statements: ordStatements,
	},
	{
		name: "stream", scale: 6, warmRounds: 3, traceRounds: 15, httpKind: "warm",
		why:      "full results of Q1, Q12, Q13 over NDJSON and Q13 buffered: enumeration, row encoding and the wire dominate",
		generate: generateBase, setup: setupCatalogue, statements: streamStatements,
	},
	{
		// A cycle takes a quarter of a second, so five traced rounds are
		// what fifteen are elsewhere.
		name: "fanout", scale: 16, warmRounds: 3, traceRounds: 5, httpKind: "warm",
		why:      "scans, a deep page and a group-by over the 6k dates of R3 at scale 16, the only data above the engine's fan-out floors: parallel cursors and operators",
		generate: generateR3, setup: setupCatalogue, statements: fanoutStatements, finish: fanoutFinish,
	},
	{
		// The verification pass is plan_cold's warm-up: one full pass leaves
		// the plan cache full of statements the next pass will not ask for.
		name: "plan_cold", scale: 2, warmRounds: 0, traceRounds: 1, httpKind: "cold",
		why:      "1024 distinct statements round-robin against a 256-entry plan cache: every request parses, plans and builds its base snapshot",
		generate: generateBase, setup: setupCatalogue, statements: planColdStatements,
		finish: func(r *run) error {
			if hits := r.measured.cache.Hits; hits != 0 {
				r.col.fail("plan_cold", fmt.Errorf("%d plan-cache hits; the corpus must always miss", hits))
			}
			return nil
		},
	},
	{
		// What a read costs grows with the writes since the last compaction,
		// so the traced run spans one whole compaction period, as the
		// measured loop spans several: 21 rounds of the six statements are
		// 126 operations, as are compactEvery cycles of 5 plus the compaction.
		// The warm-up runs on to the first compaction, which fills the window.
		name: "write_mix", scale: 4, warmRounds: 3, traceRounds: 21, httpKind: "stale",
		why:      "insert/upsert/delete with fsync per ack beside two reads and periodic compaction on a mutable catalogue at constant live size",
		generate: generateBase, setup: setupMutable, statements: mixStatements, schedule: mixSchedule,
		finish: mixFinish, traceWrite: mixTraceWrite, traceExtra: mixTraceExtra,
	},
	{
		name: "scatter", scale: 4, warmRounds: 3, traceRounds: 15, httpKind: "warm",
		why:      "six single-relation statements through a 2-shard coordinator: strategy, merge, wire re-encode and a second HTTP hop",
		generate: generateViews, setup: setupCluster, statements: scatterStatements, traceExtra: scatterTraceExtra,
	},
}

// decl declares one metric of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may worsen.
type decl struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a caller of the system sees, reported by
// every workload from the measured loop. The write path's three are
// write_mix's; the other workloads repeat a read figure under them (see
// run.endToEnd). The bounds are the widest the driver accepts. Pairs of
// runs minutes apart agree within 3%, but the sandbox this was written
// on runs at two speeds 15-18% apart and changes between them a few
// times an hour, and the driver compares two rounds of runs a quarter of
// an hour apart (README.md, "Steadiness", has the rounds).
var endToEnd = []decl{
	{"qps", "1/s", "higher", 0.25},
	{"geomean_p50_ms", "ms", "lower", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"ttfr_p50_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"rows_written_per_s", "1/s", "higher", 0.25},
	{"compact_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics every workload's traced run
// produces. Workload-specific layers (wal, mutable, cluster) are in the
// printed report and the report file only.
var perLayer = []decl{
	{"sql.normalize_us", "us", "lower", 0}, {"sql.parse_us", "us", "lower", 0},
	{"cache.hit_rate", "ratio", "higher", 0}, {"cache.evictions", "count", "lower", 0}, {"cache.lookup_us", "us", "lower", 0},
	{"plan.prepare_us", "us", "lower", 0}, {"plan.search_us", "us", "lower", 0}, {"plan.ops_per_plan", "count", "lower", 0},
	{"plan.est_cost", "count", "lower", 0}, {"plan.est_over_actual", "ratio", "lower", 0}, {"ftree.sizebound_us", "us", "lower", 0},
	{"engine.first_exec_ms", "ms", "lower", 0}, {"engine.exec_ms", "ms", "lower", 0}, {"engine.rows_open_us", "us", "lower", 0},
	{"engine.par_queries", "1/op", "higher", 0}, {"engine.par_workers", "1/op", "higher", 0}, {"engine.par_enum_workers", "1/op", "higher", 0},
	{"engine.par_op_workers", "1/op", "higher", 0}, {"engine.par_eval_workers", "1/op", "higher", 0}, {"engine.seek_share", "ratio", "higher", 0},
	{"frep.build_ms", "ms", "lower", 0}, {"frep.clone_us", "us", "lower", 0}, {"frep.enum_ns_per_row", "ns", "lower", 0},
	{"frep.kernel_share", "ratio", "higher", 0}, {"frep.base_singletons", "count", "lower", 0}, {"frep.bytes_per_singleton", "B", "lower", 0},
	{"fops.ops_ms", "ms", "lower", 0}, {"fops.merge_share", "ratio", "lower", 0}, {"fops.absorb_share", "ratio", "lower", 0},
	{"fops.swap_share", "ratio", "lower", 0}, {"fops.gamma_share", "ratio", "lower", 0}, {"fops.select_share", "ratio", "lower", 0},
	{"fops.remove_share", "ratio", "lower", 0}, {"fops.peak_singletons", "count", "lower", 0}, {"fops.out_singletons", "count", "lower", 0},
	{"server.encode_ns_per_row", "ns", "lower", 0}, {"server.transport_ms", "ms", "lower", 0}, {"server.stats_p50_ms", "ms", "lower", 0},
	{"wire.decode_ns_per_row", "ns", "lower", 0}, {"wire.append_ns_per_row", "ns", "lower", 0},
	{"catalog.build_ms", "ms", "lower", 0}, {"catalog.write_ms", "ms", "lower", 0}, {"catalog.load_ms", "ms", "lower", 0},
	{"catalog.bytes_per_user_byte", "ratio", "lower", 0},
	{"rdb.flat_ms", "ms", "lower", 0}, {"rdb.speedup_x", "x", "higher", 0},
	{"process.alloc_kb_per_op", "KiB", "lower", 0}, {"process.allocs_per_op", "count", "lower", 0},
	{"process.heap_peak_mb", "MiB", "lower", 0}, {"process.gc_pause_ms", "ms", "lower", 0},
	{"client.tail_ms", "ms", "lower", 0}, {"client.tail_pct", "%", "higher", 0}, {"client.samples", "count", "higher", 0},
	{"trace.coverage", "ratio", "higher", 0}, {"trace.exec_replay_ratio", "ratio", "lower", 0}, {"trace.overhead_ratio", "ratio", "lower", 0},
}

// runSeconds is the measured-loop length BENCHMARK.json asks the driver
// for.
const runSeconds = 10

// manifest renders BENCHMARK.json from the tables above, so the file
// at the repository root cannot drift from what the program reports
// (manifest_test.go compares the two).
func manifest() []byte {
	type entry map[string]any
	var ws, e2e, layers []entry
	for _, w := range workloads {
		ws = append(ws, entry{"name": w.name, "why": w.why})
	}
	for _, d := range endToEnd {
		e2e = append(e2e, entry{"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound})
	}
	for _, d := range perLayer {
		layers = append(layers, entry{"name": d.name, "unit": d.unit, "better": d.better})
	}
	body, err := json.MarshalIndent(entry{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  e2e,
		"per_layer":   layers,
	}, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always encode
	}
	return append(body, '\n')
}

// result is the outcome of one workload run in the driver's shape.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one workload run produced; runOne prints it and
// writes it to report-<workload>.json.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Scale     int               `json:"scale"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func reportPath(w *workload, opts options) string {
	return filepath.Join(opts.out, "report-"+w.name+".json")
}

// runOne executes one workload in this process, prints its report and
// writes its report file.
func runOne(w *workload, opts options) (*report, error) {
	r := &run{w: w, opts: opts}
	if err := r.execute(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep := &report{w.name, opts.seed, r.scale(), opts.duration.Seconds(), r.col.attempted, r.col.failed, r.col.firstErrs, r.report}
	fmt.Printf("== %s (seed %d, scale %d, %s measured, closed loop, 1 client, GOMAXPROCS %d, fsync per acknowledged write) ==\n",
		w.name, opts.seed, rep.Scale, opts.duration, runtime.GOMAXPROCS(0))
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("%-32s %16d of %d\n", "failed", rep.Failed, rep.Attempted)
	for _, e := range rep.Failures {
		fmt.Printf("  failure: %s\n", e)
	}
	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(reportPath(w, opts), append(body, '\n'), 0o644)
}

// child runs one workload in a process of its own, as the driver does,
// passes its output through and returns its report. Runs that share a
// process share a heap and a collector: fanout measured 15% slower as
// the second run of a process than as the first, and 15% slower after
// three other workloads than alone.
func child(w *workload, opts options) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if opts.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(opts.seed, 10),
		"-seconds", strconv.FormatFloat(opts.duration.Seconds(), 'g', -1, 64), "-trace", trace, "-out", opts.out)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	body, err := os.ReadFile(reportPath(w, opts))
	if err != nil {
		return nil, err
	}
	rep := &report{}
	return rep, json.Unmarshal(body, rep)
}

// pick selects the declared metrics from a report.
func pick(rep *report, decls []decl) (*result, error) {
	res := &result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	for _, d := range decls {
		m, ok := rep.Metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s missing or not finite", rep.Workload, d.name)
		}
		res.Metrics[d.name] = m
	}
	return res, nil
}

func find(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var opts options
	var seconds float64
	var trace int
	name := flag.String("workload", "", "run one workload (agg, ord, stream, fanout, plan_cold, write_mix, scatter) and end with the driver's one-line JSON; default: all seven and a summary")
	flag.Int64Var(&opts.seed, "seed", 20130701, "seed of every generated input")
	flag.Float64Var(&seconds, "seconds", runSeconds, "length of the measured loop, per workload")
	flag.IntVar(&trace, "trace", 1, "1: follow the measured loop with the traced run and report the per-layer metrics; 0: end-to-end metrics only")
	flag.StringVar(&opts.out, "out", "out", "directory for trace-<workload>.json, report-<workload>.json and scratch files")
	agree := flag.Bool("agree", false, "run the suite twice on this build and compare the end-to-end metrics with their bounds")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as this build defines it, and exit")
	flag.Parse()
	if *printManifest {
		os.Stdout.Write(manifest())
		return
	}
	opts.duration = time.Duration(seconds * float64(time.Second))
	opts.trace = trace != 0
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		fatal(err)
	}

	switch {
	case *agree:
		opts.trace = false
		if !agreement(opts) {
			os.Exit(1)
		}
	case *name != "":
		w := find(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		r, err := runOne(w, opts)
		if err != nil {
			fatal(err)
		}
		decls := endToEnd
		if opts.trace {
			decls = perLayer
		}
		res, err := pick(r, decls)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	default:
		summary := map[string]*result{}
		for _, w := range workloads {
			r, err := child(w, opts)
			if err != nil {
				fatal(err)
			}
			decls := endToEnd
			if opts.trace {
				decls = append(append([]decl{}, endToEnd...), perLayer...)
			}
			if summary[w.name], err = pick(r, decls); err != nil {
				fatal(err)
			}
		}
		// This benchmark measures; it claims nothing.
		line, err := json.Marshal(struct {
			Seed      int64              `json:"seed"`
			Seconds   float64            `json:"seconds"`
			Workloads map[string]*result `json:"workloads"`
			Claim     *string            `json:"claim"`
		}{opts.seed, opts.duration.Seconds(), summary, nil})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// agreement runs every workload twice with identical settings, each
// run in a process of its own, and prints, per (workload, end-to-end metric), both values, their
// relative difference and the metric's bound. It reports whether every
// difference is within its bound.
func agreement(opts options) bool {
	ok := true
	table := fmt.Sprintf("%-16s %-20s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		var vals [2]map[string]metric
		for i := range vals {
			r, err := child(w, opts)
			if err != nil {
				fatal(err)
			}
			if r.Failed > 0 {
				ok = false
			}
			vals[i] = r.Metrics
		}
		for _, d := range endToEnd {
			a, b := vals[0][d.name].Value, vals[1][d.name].Value
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > d.bound {
				verdict, ok = "  OVER", false
			}
			table += fmt.Sprintf("agree %-10s %-20s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", w.name, d.name, a, b, 100*diff, 100*d.bound, verdict)
		}
	}
	fmt.Print(table)
	return ok
}
