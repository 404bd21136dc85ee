package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/server"
	"github.com/factordb/fdb/internal/server/cache"
)

// stmt is one distinct statement of a workload.
type stmt struct {
	name string
	// class groups statements whose latencies are summarised together:
	// the statement itself everywhere except plan_cold, where the 1,024
	// texts fall into their 13 query shapes.
	class   string
	kind    opKind
	sql     string
	ordered bool // ORDER BY is total: the response is checked order-sensitively
	// dynamic marks a read whose answer changes as the workload writes;
	// its reference comes from the schedule's model, not from want.
	dynamic bool
	want    ref     // the flat baseline's answer (reads with a fixed answer)
	flatMs  float64 // wall time of the flat baseline on this statement
}

func (s *stmt) isRead() bool { return s.kind == kindStream || s.kind == kindBuffered }

// op is one scheduled operation: a statement plus, when the text or the
// expected answer changes from one issue to the next (write_mix), the
// text and answer for this issue.
type op struct {
	st   *stmt
	sql  string
	want ref
	// endsPeriod marks the last operation of a period of the schedule: a
	// round-robin pass, or write_mix's compactEvery cycles up to and including
	// the compaction. Warm-up and measured loop end on one, so every
	// measured run holds whole periods, whatever its length.
	endsPeriod bool
	// endsCycle marks the last operation of a cycle, the unit throughput
	// is taken over: a round-robin pass, or write_mix's five statements.
	// A compaction runs between two cycles and belongs to neither.
	endsCycle bool
}

// env is one stood-up serving stack: what a set-up produces and a
// tear-down releases.
type env struct {
	url string // where the benchmark's client sends requests
	// servers are the internal/server instances that plan and execute
	// the workload's reads (the coordinator's workers for scatter).
	servers []*server.Server
	// db returns the relations the served reads currently run on, for
	// the in-process traced replay.
	db func() engine.DB
	// extra carries workload-specific handles (mutable catalogue,
	// coordinator) for its own probes.
	extra any
	stop  []func() // run in reverse order by close
}

func (e *env) close() {
	for i := len(e.stop) - 1; i >= 0; i-- {
		e.stop[i]()
	}
	e.stop = nil
}

func (e *env) planCache() cache.Stats {
	var sum cache.Stats
	for _, s := range e.servers {
		for _, d := range s.Stats().Databases {
			sum.Hits += d.PlanCache.Hits
			sum.Misses += d.PlanCache.Misses
			sum.Size += d.PlanCache.Size
		}
	}
	return sum
}

// workload is one of the named workloads.
type workload struct {
	name  string
	why   string
	scale int
	// warmRounds is how many times the warm-up issues every distinct
	// statement before it runs on to the end of the schedule's period;
	// traceRounds is how many times the traced run issues each.
	warmRounds, traceRounds int
	// httpKind names the in-process request kind that matches what the
	// measured traffic pays on every request: "warm" (plan and base
	// snapshot cached), "cold" (plan-cache miss) or "stale" (cached plan,
	// base snapshot rebuilt after a write).
	httpKind string

	// generate builds the flat relations from the seed (not part of
	// setup_s: set-up starts from relations in memory).
	generate func(r *run) error
	// setup stands the serving stack up in dir.
	setup func(r *run, dir string) (*env, error)
	// statements lists the distinct statements, using the oracle where a
	// text depends on a result size.
	statements func(r *run) ([]*stmt, error)
	// schedule returns the deterministic operation sequence; nil means
	// round-robin over the statements.
	schedule func(r *run) func() op
	// finish runs workload-specific end-of-run checks (counted as
	// operations) and report-only metrics.
	finish func(r *run) error
	// traceWrite executes one scheduled write in-process during the
	// traced run (workloads that write).
	traceWrite func(r *run, t *tracer, o op) error
	// traceExtra adds workload-specific probes to the traced run.
	traceExtra func(r *run, t *tracer) error
}

// run is the state of one workload run.
type run struct {
	w    *workload
	opts options
	dir  string // scratch directory inside the output directory

	flat   rdb.DB // the generated relations: oracle input and set-up source
	data   any    // workload-specific generated inputs
	orc    *oracle
	env    *env
	stmts  []*stmt
	next   func() op
	client *client

	col      *collector
	setupS   []float64
	genS     float64
	measured measuredRun
	report   map[string]metric // every metric this run produced, by name
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) put(name, unit string, v float64) { r.report[name] = metric{Value: v, Unit: unit} }

// collector accumulates what the closed loop observed.
type collector struct {
	lat       map[string][]float64 // class → latencies, ms
	ttfr      map[string][]float64 // class → time to first row, ms (reads)
	all       []float64
	done      []completion // correct operations in completion order
	attempted int
	failed    int
	firstErrs []string
}

// completion is when a correct operation's last byte was read, how
// many result rows it delivered or wrote, and its place in the cycle.
type completion struct {
	at        time.Time
	rows      int // result rows of a read
	written   int // rows affected by a write
	endsCycle bool
	compact   bool
}

func newCollector() *collector {
	return &collector{lat: map[string][]float64{}, ttfr: map[string][]float64{}}
}

// record checks one response against its reference and files it. A
// failed operation counts against error_rate and contributes no
// latency sample.
func (c *collector) record(o op, resp response) {
	if !c.check(o.st.name, o.st.kind, o.want, resp) {
		return
	}
	ms := float64(resp.lat) / float64(time.Millisecond)
	c.lat[o.st.class] = append(c.lat[o.st.class], ms)
	c.all = append(c.all, ms)
	done := completion{at: time.Now(), endsCycle: o.endsCycle, compact: o.st.kind == kindCompact}
	if o.st.isRead() {
		c.ttfr[o.st.class] = append(c.ttfr[o.st.class], float64(resp.ttfr)/float64(time.Millisecond))
		done.rows = resp.got.rows
	} else if o.st.kind == kindExec {
		done.written = resp.got.rows
	}
	c.done = append(c.done, done)
}

// cycleRates cuts the correct operations into the schedule's cycles and
// returns each cycle's operations, result rows and written rows per
// second. Every cycle holds the same statements, so the median cycle is
// the workload's throughput with stalls of the machine left out — which
// total ÷ wall time would not leave out. A compaction falls between two
// cycles: the next cycle's clock starts when it completes, and its cost
// is compact_p50_ms.
func (c *collector) cycleRates(start time.Time) (ops, rows, written []float64) {
	var n, delivered, wrote int
	for _, d := range c.done {
		if d.compact {
			start = d.at
			continue
		}
		n++
		delivered += d.rows
		wrote += d.written
		if d.endsCycle {
			secs := d.at.Sub(start).Seconds()
			ops = append(ops, ratio(float64(n), secs))
			rows = append(rows, ratio(float64(delivered), secs))
			written = append(written, ratio(float64(wrote), secs))
			start, n, delivered, wrote = d.at, 0, 0, 0
		}
	}
	return ops, rows, written
}

// check tallies one operation and reports whether its response is the
// expected one.
func (c *collector) check(name string, kind opKind, want ref, resp response) bool {
	err := resp.err
	if err == nil && kind != kindCompact && resp.got != want {
		err = fmt.Errorf("got %d rows hash %x, want %d rows hash %x", resp.got.rows, resp.got.hash, want.rows, want.hash)
	}
	if err != nil {
		c.fail(name, err)
		return false
	}
	c.attempted++
	return true
}

// resetSamples drops the latency samples and completions gathered so far
// (verification and warm-up) but keeps the attempted/failed tally: a
// failure in any phase is a failure of the run.
func (c *collector) resetSamples() {
	c.lat, c.ttfr, c.all, c.done = map[string][]float64{}, map[string][]float64{}, nil, nil
}

// fail files a failed operation that never produced a response (a
// set-up or end-of-run check).
func (c *collector) fail(what string, err error) {
	c.attempted++
	c.failed++
	if len(c.firstErrs) < 5 {
		c.firstErrs = append(c.firstErrs, fmt.Sprintf("%s: %v", what, err))
	}
}

// classMedians returns the median of every class in m, in class order.
func classMedians(m map[string][]float64) (names []string, meds []float64) {
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		meds = append(meds, median(m[name]))
	}
	return names, meds
}

// measuredRun is what the process-wide counters showed across the
// measured loop.
type measuredRun struct {
	start     time.Time
	wall      float64 // seconds
	ops       int
	cache     cache.Stats // delta
	evictions uint64      // misses that did not grow the cache (every miss is followed by a Put)
	par       fdb.ParStats
	offsets   fdb.OffsetStats
	heapPeak  uint64
	serverP50 float64
	// runtime.MemStats deltas
	mallocs, allocBytes, gcPauseNs uint64
}

// A run sets up at least minSetups times and keeps setting up until all
// set-ups together have taken setupBudget; setup_s is the median. A
// set-up of a few milliseconds is mostly fsyncs, whose latency on the
// sandbox switches between two levels every few tens of milliseconds:
// only a median over a second of them repeats from run to run. fanout's
// set-up takes half a second, and five of them are all a run has time for.
const (
	minSetups   = 5
	setupBudget = time.Second
)

// execute runs the workload: generate → oracle → repeated set-up →
// verify → warm-up → measured loop → (traced run) → finish.
func (r *run) execute() error {
	w := r.w
	r.col = newCollector()
	r.report = map[string]metric{}
	var err error
	if r.dir, err = os.MkdirTemp(r.opts.out, "tmp-"+w.name+"-"); err != nil {
		return err
	}
	defer os.RemoveAll(r.dir)

	start := time.Now()
	if err := w.generate(r); err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	r.genS = time.Since(start).Seconds()
	r.orc = newOracle(r.flat)
	if r.stmts, err = w.statements(r); err != nil {
		return fmt.Errorf("statements: %w", err)
	}
	if err := r.answerAll(); err != nil {
		return err
	}
	// Every reference is taken; the flat results (a million-tuple join per
	// ordered statement) are garbage. Collect them here, off every clock:
	// a collector that still has them to mark made whole seconds of
	// set-ups three times slower on some runs and not on others.
	r.orc.release()
	runtime.GC()
	debug.FreeOSMemory()
	r.client = newClient()
	defer r.client.close()

	// Set-up, repeated: every stack but the last is torn down again, the
	// last one serves the run. Each ends with the first statement
	// answered, so set-up means "first query answerable".
	first := r.firstRead()
	setupStart := time.Now()
	dir := ""
	for i := 0; i < minSetups || time.Since(setupStart) < setupBudget; i++ {
		if r.env != nil {
			r.env.close()
			os.RemoveAll(dir) // the stack it held is gone; r.dir's removal catches any leftover
		}
		dir = filepath.Join(r.dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		start := time.Now()
		if r.env, err = w.setup(r, dir); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		resp := r.client.do(r.env.url, first.kind, first.sql, first.ordered)
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		if resp.err != nil {
			r.env.close()
			return fmt.Errorf("set-up: first statement %s: %w", first.name, resp.err)
		}
	}
	defer func() { r.env.close() }()

	if w.schedule != nil {
		r.next = w.schedule(r)
	} else {
		r.next = roundRobin(r.stmts)
	}

	// Verification pass: every distinct read once through the server
	// against the flat baseline. These count as operations.
	for _, st := range r.stmts {
		if st.isRead() && !st.dynamic {
			r.col.record(op{st: st, sql: st.sql, want: st.want}, r.client.do(r.env.url, st.kind, st.sql, st.ordered))
		}
	}

	// Warm-up: fills the plan cache and the per-plan base snapshots,
	// grows pooled buffers; its samples are discarded.
	last := op{endsPeriod: true}
	for i := 0; i < w.warmRounds*len(r.stmts) || !last.endsPeriod; i++ {
		last = r.issue()
	}
	r.col.resetSamples()

	r.measure()
	if r.opts.trace {
		if err := r.traced(); err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
	}
	if w.finish != nil {
		if err := w.finish(r); err != nil {
			return fmt.Errorf("finish: %w", err)
		}
	}
	r.endToEnd()
	return nil
}

func (r *run) firstRead() *stmt {
	for _, st := range r.stmts {
		if st.isRead() {
			return st
		}
	}
	return r.stmts[0]
}

// answerAll asks the oracle for every read statement with a fixed
// answer.
func (r *run) answerAll() error {
	for _, st := range r.stmts {
		if !st.isRead() || st.dynamic {
			continue
		}
		var err error
		if st.want, st.flatMs, err = r.orc.answer(st); err != nil {
			return err
		}
	}
	return nil
}

// roundRobin cycles over the statements; a pass is a cycle and a
// period.
func roundRobin(stmts []*stmt) func() op {
	i := 0
	return func() op {
		st := stmts[i%len(stmts)]
		i++
		last := i%len(stmts) == 0
		return op{st: st, sql: st.sql, want: st.want, endsPeriod: last, endsCycle: last}
	}
}

// issue sends the next scheduled operation, records its outcome and
// returns it.
func (r *run) issue() op {
	o := r.next()
	r.col.record(o, r.client.do(r.env.url, o.st.kind, o.sql, o.st.ordered))
	return o
}

// measure is the measured loop: tracing off, one client, closed loop,
// for the configured duration and on to the end of the schedule's
// current period.
func (r *run) measure() {
	// Start every run from the same heap state, with the warm-up's
	// garbage collected off the measured clock.
	runtime.GC()
	debug.FreeOSMemory()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cacheBefore := r.env.planCache()
	parBefore, offBefore := fdb.ParallelStats(), fdb.SeekSkipStats()
	peak := startHeapSampler()

	start := time.Now()
	deadline := start.Add(r.opts.duration)
	n := 0
	for last := (op{}); time.Now().Before(deadline) || !last.endsPeriod; n++ {
		last = r.issue()
	}
	wall := time.Since(start).Seconds()

	m := &r.measured
	m.heapPeak = peak()
	runtime.ReadMemStats(&after)
	m.start, m.wall, m.ops = start, wall, n
	cacheAfter := r.env.planCache()
	m.cache = cache.Stats{Hits: cacheAfter.Hits - cacheBefore.Hits, Misses: cacheAfter.Misses - cacheBefore.Misses}
	m.evictions = m.cache.Misses - uint64(cacheAfter.Size-cacheBefore.Size)
	par, off := fdb.ParallelStats(), fdb.SeekSkipStats()
	m.par = fdb.ParStats{
		Queries:     par.Queries - parBefore.Queries,
		EnumWorkers: par.EnumWorkers - parBefore.EnumWorkers,
		OpWorkers:   par.OpWorkers - parBefore.OpWorkers,
		EvalWorkers: par.EvalWorkers - parBefore.EvalWorkers,
	}
	m.offsets = fdb.OffsetStats{
		SeekOffsets: off.SeekOffsets - offBefore.SeekOffsets,
		SkipOffsets: off.SkipOffsets - offBefore.SkipOffsets,
	}
	m.mallocs = after.Mallocs - before.Mallocs
	m.allocBytes = after.TotalAlloc - before.TotalAlloc
	m.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	for _, s := range r.env.servers {
		m.serverP50 = max(m.serverP50, s.Stats().P50Millis)
	}
}

// endToEnd derives the end-to-end metrics from the measured loop.
func (r *run) endToEnd() {
	c, m := r.col, r.measured
	correct := len(c.all)
	kindOf := map[string]opKind{}
	for _, st := range r.stmts {
		kindOf[st.class] = st.kind
	}
	names, meds := classMedians(c.lat)
	var readMeds, writeMeds, compactMeds []float64
	for i, name := range names {
		r.put("client."+name+".p50_ms", "ms", meds[i])
		switch kindOf[name] {
		case kindExec:
			writeMeds = append(writeMeds, meds[i])
		case kindCompact:
			compactMeds = append(compactMeds, meds[i])
		default:
			readMeds = append(readMeds, meds[i])
		}
	}
	_, ttfrMeds := classMedians(c.ttfr)
	opRates, rowRates, writeRates := c.cycleRates(m.start)
	reads := geomean(readMeds)
	r.put("setup_s", "s", median(r.setupS))
	r.put("qps", "1/s", median(opRates))
	r.put("geomean_p50_ms", "ms", reads)
	r.put("rows_per_s", "1/s", median(rowRates))
	r.put("ttfr_p50_ms", "ms", geomean(ttfrMeds))
	// The driver wants every declared metric from every workload, and
	// never 0. A workload that does not write (only write_mix does) reports
	// its read figures under the write path's names: defined, as steady as
	// the figure they repeat, and gating nothing new.
	r.put("write_p50_ms", "ms", orElse(geomean(writeMeds), reads))
	r.put("compact_p50_ms", "ms", orElse(geomean(compactMeds), reads))
	r.put("rows_written_per_s", "1/s", orElse(median(writeRates), median(rowRates)))
	r.put("wall_qps", "1/s", ratio(float64(correct), m.wall))
	r.put("cycles", "count", float64(len(opRates)))
	r.put("compactions", "count", float64(len(c.lat["compact"])))
	r.put("error_rate", "ratio", ratio(float64(c.failed), float64(c.attempted)))
	r.put("oracle_s", "s", r.orc.seconds)
	r.put("generate_s", "s", r.genS)

	pct, val := tail(c.all)
	r.put("client.tail_ms", "ms", val)
	r.put("client.tail_pct", "%", pct)
	r.put("client.samples", "count", float64(correct))
}

// orElse returns v, or fallback when v is 0 (no samples).
func orElse(v, fallback float64) float64 {
	if v == 0 {
		return fallback
	}
	return v
}
