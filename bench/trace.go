package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/plan"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/server/cache"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/wire"
)

// span is one timed call into a layer's public functions, recorded by
// the benchmark around the call (the program itself is not
// instrumented). Spans of one replayed request share Request; Parent is
// the ID of the enclosing span, 0 for a root, which also names the
// statement.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Request int              `json:"request"`
	Name    string           `json:"name"`
	Stmt    string           `json:"stmt,omitempty"`
	Start   int64            `json:"start_ns"`
	End     int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// sample is one replayed request (or operator replay) reduced to the
// time spent under each span name.
type sample struct {
	kind string // "cold", "stale", "warm", "untraced" or "replay"
	// ns maps a span name to the time spent under it in this request;
	// "<root>.self" is the root's self time and "rows" the rows returned.
	ns map[string]float64
}

// tracer runs the traced replay of one workload: every scheduled
// statement is executed in-process in the order the server executes it
// (server.streamQuery), with a span around each call into a layer.
type tracer struct {
	r       *run
	t0      time.Time
	rec     bool // false while measuring the untraced in-process baseline
	spans   []span
	request int
	root    int // the open root span's ID

	eng   *fdb.Engine
	plans *cache.LRU
	prep  map[*stmt]*fdb.PreparedQuery // last plan per statement, for the operator replay
	dirty map[*stmt]bool               // a write landed since the statement last ran

	samples map[string][]sample // by statement class
	static  map[*stmt]planFacts
	batch   []values.Value
}

// planFacts are the per-statement numbers that do not vary between
// repetitions.
type planFacts struct {
	ops                      int
	estCost, actualCost      float64
	peak, out, baseSingleton int
	baseBytes                int
}

func (t *tracer) begin(name string) int {
	if !t.rec {
		return -1
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.root, Request: t.request, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

func (t *tracer) count(id int, key string, n int) {
	if id <= 0 {
		return
	}
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] = int64(n)
}

// openRoot starts a new request (or replay) of st and its root span.
func (t *tracer) openRoot(name string, st *stmt) (id, first int) {
	t.request++
	t.root = 0
	id = t.begin(name)
	if id > 0 {
		t.spans[id-1].Stmt = st.name
	}
	t.root = id
	return id, len(t.spans)
}

// closeRoot ends the root span and reduces the request's spans to a
// sample.
func (t *tracer) closeRoot(id, first int, kind string) sample {
	t.end(id)
	t.root = 0
	s := sample{kind: kind, ns: map[string]float64{}}
	if id <= 0 {
		return s
	}
	mine := t.spans[first-1:]
	for _, sp := range mine {
		s.ns[sp.Name] += float64(sp.End - sp.Start)
	}
	s.ns[mine[0].Name+".self"] = float64(selfTimes(mine)[id])
	return s
}

// traceBatch is how many rows the traced request enumerates before it
// encodes them: the server interleaves the two per row, and timing each
// row would cost more than the work timed.
const traceBatch = 256

// runRequest executes one read statement the way server.streamQuery
// does: normalise → cache lookup → (parse → prepare on a miss) →
// ExecShared → open cursor → enumerate/encode → close. The response is
// encoded into a discarding writer.
func (t *tracer) runRequest(st *stmt) (sample, error) {
	ctx := context.Background()
	rootName := "request"
	id, first := t.openRoot(rootName, st)
	start := time.Now()

	sp := t.begin("sql.normalize")
	key := sql.Normalize(st.sql)
	t.end(sp)

	sp = t.begin("cache.get")
	v, hit := t.plans.Get(key)
	t.end(sp)

	// The server asks its database for the current relations on every
	// request; for a mutable catalogue the first ask after a write
	// materialises the merged view.
	sp = t.begin("engine.view")
	db := t.r.env.db()
	t.end(sp)

	kind := "warm"
	var prep *fdb.PreparedQuery
	if hit {
		prep = v.(*fdb.PreparedQuery)
		if t.dirty[st] {
			kind = "stale"
		}
	} else {
		kind = "cold"
		sp = t.begin("sql.parse")
		q, err := sql.Parse(st.sql)
		t.end(sp)
		if err != nil {
			return sample{}, err
		}
		sp = t.begin("plan.prepare")
		prep, err = t.eng.Prepare(q, db)
		t.end(sp)
		if err != nil {
			return sample{}, err
		}
		t.plans.Put(key, prep)
		t.prep[st] = prep
	}
	delete(t.dirty, st)

	sp = t.begin("engine.exec")
	res, err := prep.ExecSharedContext(ctx, db)
	t.end(sp)
	if err != nil {
		return sample{}, err
	}
	defer res.Close()

	sp = t.begin("engine.rows_open")
	rows, err := res.Rows(ctx)
	t.end(sp)
	if err != nil {
		return sample{}, err
	}
	defer rows.Close()

	enc := json.NewEncoder(io.Discard)
	cols := rows.Columns()
	if err := enc.Encode(wire.Header{Columns: cols, Cached: hit}); err != nil {
		return sample{}, err
	}
	row := make([]any, 0, len(cols))
	n := 0
	if t.rec {
		nc := len(cols)
		for more := true; more; {
			t.batch = t.batch[:0]
			sp = t.begin("frep.enumerate")
			got := 0
			for got < traceBatch && rows.Next() {
				t.batch = append(t.batch, rows.Tuple()...)
				got++
			}
			t.end(sp)
			t.count(sp, "rows", got)
			more = got == traceBatch
			sp = t.begin("server.encode")
			for i := 0; i < got; i++ {
				row = row[:0]
				for _, v := range t.batch[i*nc : (i+1)*nc] {
					row = append(row, fdb.GoValue(v))
				}
				if err := enc.Encode(row); err != nil {
					return sample{}, err
				}
			}
			t.end(sp)
			t.count(sp, "rows", got)
			n += got
		}
	} else {
		for rows.Next() {
			row = row[:0]
			for _, v := range rows.Tuple() {
				row = append(row, fdb.GoValue(v))
			}
			if err := enc.Encode(row); err != nil {
				return sample{}, err
			}
			n++
		}
	}
	if err := rows.Err(); err != nil {
		return sample{}, err
	}
	if err := enc.Encode(wire.Trailer{RowCount: n, ElapsedMillis: msSince(start)}); err != nil {
		return sample{}, err
	}
	s := t.closeRoot(id, first, kind)
	if !t.rec {
		s.kind = "untraced"
		s.ns[rootName] = float64(time.Since(start))
	}
	s.ns["rows"] = float64(n)
	return s, nil
}

// replayRequest runs st's request with recording on or off.
func (t *tracer) replayRequest(st *stmt, rec bool) (sample, error) {
	t.rec = rec
	s, err := t.runRequest(st)
	t.rec = true
	if err != nil {
		return s, fmt.Errorf("%s: %w", st.name, err)
	}
	return s, nil
}

// opKindName names an f-plan operator for the fops.* spans.
func opKindName(op plan.Op) string {
	switch op.(type) {
	case plan.SwapOp:
		return "swap"
	case plan.MergeOp:
		return "merge"
	case plan.AbsorbOp:
		return "absorb"
	case plan.SelectConstOp:
		return "select"
	case plan.GammaOp:
		return "gamma"
	case plan.RemoveOp:
		return "remove"
	default:
		return "rename"
	}
}

// bareCount mirrors the engine's shortcut: a lone COUNT(*) without
// filters is answered from the ranked root counts and its plan never
// runs, so the replay must not run it either.
func bareCount(q *query.Query) bool {
	return len(q.Aggregates) == 1 && q.Aggregates[0].Fn == query.Count && q.Aggregates[0].Arg == "" &&
		len(q.GroupBy)+len(q.Having)+len(q.OrderBy)+len(q.Filters)+len(q.Equalities) == 0
}

// replay breaks engine.exec into its parts from outside: the base
// relations are factorised along the plan's path orders
// (frep.BuildStoreUnchecked, ranked and column-indexed as ExecShared
// does), and each repetition slab-copies that base into a reused store
// and applies the plan's operators one Op.Apply at a time, recording
// the representation size in singletons around each.
func (t *tracer) replay(st *stmt, reps int) error {
	prep := t.prep[st]
	db := t.r.env.db()
	q := prep.Query
	forest := func() *ftree.Forest {
		f := ftree.New()
		for _, order := range prep.Orders {
			f.NewRelationPath(order...)
		}
		return f
	}
	var cat []ftree.CatalogRelation
	for _, name := range q.Relations {
		cat = append(cat, ftree.CatalogRelation{Name: name, Attrs: db[name].Attrs, Size: db[name].Cardinality()})
	}
	facts := planFacts{ops: len(prep.Plan.Ops), estCost: prep.Plan.Cost}
	work := frep.NewStore()
	for rep := 0; rep < reps; rep++ {
		id, first := t.openRoot("replay", st)

		sp := t.begin("plan.search")
		_, err := (&plan.Planner{Catalog: cat, PartialAgg: true}).Plan(forest(), q)
		t.end(sp)
		if err != nil {
			return err
		}
		bound := forest()
		sp = t.begin("ftree.sizebound")
		bound.SizeBound(cat)
		t.end(sp)

		base := frep.NewStore()
		var roots []frep.NodeID
		sp = t.begin("frep.build")
		for i, name := range q.Relations {
			sub := ftree.New()
			sub.NewRelationPath(prep.Orders[i]...)
			rs, err := frep.BuildStoreUnchecked(base, db[name], sub)
			if err != nil {
				return err
			}
			roots = append(roots, rs[0])
		}
		if err := base.BuildRanks(); err != nil {
			return err
		}
		base.BuildCols()
		snap := base.Snapshot()
		t.end(sp)

		work.Reset()
		sp = t.begin("frep.clone")
		snap.CloneInto(work)
		t.end(sp)
		ar := &fops.ARel{Tree: forest(), Store: work, Roots: append([]frep.NodeID{}, roots...), Par: runtime.GOMAXPROCS(0)}
		if ar.IsEmpty() {
			ar.MakeEmpty()
		}
		size := ar.Singletons()
		if rep == 0 {
			facts.baseSingleton = size
			if b, err := snap.SnapshotBytes(); err == nil {
				facts.baseBytes = len(b)
			}
			facts.peak, facts.actualCost = size, float64(size)
		}
		if !bareCount(q) {
			for _, op := range prep.Plan.Ops {
				sp = t.begin("fops." + opKindName(op))
				err := op.Apply(ar)
				t.end(sp)
				if err != nil {
					return fmt.Errorf("replay %s: %s: %w", st.name, op, err)
				}
				after := ar.Singletons()
				t.count(sp, "singletons_in", size)
				t.count(sp, "singletons_out", after)
				size = after
				if rep == 0 {
					facts.peak = max(facts.peak, size)
					facts.actualCost += float64(size)
				}
			}
		}
		if rep == 0 {
			facts.out = size
		}
		t.samples[st.class] = append(t.samples[st.class], t.closeRoot(id, first, "replay"))
	}
	t.static[st] = facts
	return nil
}

// mean is the time per request spent under a span name: the mean over
// statement classes of each class's median over its samples of the
// given kinds (classes without such samples are skipped) — the same
// weighting as the measured loop's per-class medians, so layer times
// add up to the request time they are compared with.
func (t *tracer) mean(name string, kinds ...string) float64 {
	return t.meanWhere(name, "", kinds...)
}

// meanWhere is mean restricted to classes that also have a sample of
// kind alsoHas ("" for no restriction), so two means that form a ratio
// cover the same classes: stream's s13buf shares s13's text and plan, is
// never cold and so is never replayed.
func (t *tracer) meanWhere(name, alsoHas string, kinds ...string) float64 {
	sum, n := 0.0, 0
	for _, ss := range t.samples {
		var xs []float64
		has := alsoHas == ""
		for _, s := range ss {
			has = has || s.kind == alsoHas
			for _, k := range kinds {
				if s.kind == k {
					xs = append(xs, s.ns[name])
				}
			}
		}
		if has && len(xs) > 0 {
			sum += median(xs)
			n++
		}
	}
	return ratio(sum, float64(n))
}

var requestKinds = []string{"cold", "stale", "warm"}

// traced is the traced run: tracing on, in-process, continuing the
// workload's schedule for traceRounds rounds.
func (r *run) traced() error {
	w := r.w
	t := &tracer{
		r: r, t0: time.Now(), rec: true,
		spans:   make([]span, 0, 1<<16),
		eng:     fdb.NewEngine(),
		plans:   cache.New(256), // the server's default capacity
		prep:    map[*stmt]*fdb.PreparedQuery{},
		dirty:   map[*stmt]bool{},
		samples: map[string][]sample{},
		static:  map[*stmt]planFacts{},
	}
	// The kernel dispatch counters are off in production; the traced run
	// turns them on, which is part of what trace.overhead_ratio shows.
	frep.ResetKernelStats()
	frep.KernelStatsEnabled = true
	defer func() { frep.KernelStatsEnabled = false }()

	reads := 0
	replayed := 0
	for i := 0; i < w.traceRounds*len(r.stmts); i++ {
		o := r.next()
		st := o.st
		if !st.isRead() {
			if err := w.traceWrite(r, t, o); err != nil {
				return err
			}
			for _, other := range r.stmts {
				t.dirty[other] = true
			}
			continue
		}
		keep := func(s sample, err error) error {
			if err == nil {
				t.samples[st.class] = append(t.samples[st.class], s)
			}
			return err
		}
		s, err := t.replayRequest(st, true)
		if err := keep(s, err); err != nil {
			return err
		}
		// Every request is followed by a warm one with recording off, the
		// baseline of trace.overhead_ratio; and where the traffic is never
		// warm, by a traced warm one first, the baseline the miss or the
		// re-snapshot is measured against. They run here, not after the
		// loop, because what a warm request costs write_mix depends on how
		// long ago the last compaction was. The request right after a
		// re-snapshot is slower than the ones after it, traced or not, so
		// one is run and dropped before the two that are compared.
		if s.kind != "warm" {
			if _, err := t.replayRequest(st, false); err != nil {
				return err
			}
			if err := keep(t.replayRequest(st, true)); err != nil {
				return err
			}
		}
		if err := keep(t.replayRequest(st, false)); err != nil {
			return err
		}
		if s.kind == "cold" {
			// Replay the operators of a sample of the distinct plans: all
			// of them for small statement sets, every eighth of a corpus.
			if reads++; len(r.stmts) <= 32 || reads%8 == 0 {
				if err := t.replay(st, replayReps); err != nil {
					return err
				}
				replayed++
			}
		}
	}
	kernels := frep.ReadKernelStats()

	if w.traceExtra != nil {
		if err := w.traceExtra(r, t); err != nil {
			return err
		}
	}
	if err := r.layerProbes(t); err != nil {
		return err
	}
	r.perLayer(t, kernels, replayed)
	return t.write(filepath.Join(r.opts.out, "trace-"+w.name+".json"))
}

// replayReps is how often the operator replay repeats each plan.
const replayReps = 5

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.r.w.name, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// httpMean is the measured loop's counterpart of tracer.mean: the mean
// over read classes of the class's median HTTP latency.
func (r *run) httpMean() float64 {
	sum, n := 0.0, 0
	for class, xs := range r.col.ttfr { // ttfr is recorded for reads only
		if len(xs) > 0 {
			sum += median(r.col.lat[class])
			n++
		}
	}
	return ratio(sum, float64(n))
}

// perLayer turns the traced run and the measured loop's counter deltas
// into the per-layer metrics.
func (r *run) perLayer(t *tracer, kernels frep.KernelStats, replayed int) {
	const us, ms = 1e3, 1e6
	m := r.measured
	ops := float64(m.ops)

	r.put("sql.normalize_us", "us", t.mean("sql.normalize", requestKinds...)/us)
	r.put("sql.parse_us", "us", t.mean("sql.parse", "cold")/us)
	r.put("cache.lookup_us", "us", t.mean("cache.get", requestKinds...)/us)
	r.put("cache.hit_rate", "ratio", ratio(float64(m.cache.Hits), float64(m.cache.Hits+m.cache.Misses)))
	r.put("cache.evictions", "count", float64(m.evictions))
	r.put("plan.prepare_us", "us", t.mean("plan.prepare", "cold")/us)
	r.put("plan.search_us", "us", t.mean("plan.search", "replay")/us)
	r.put("ftree.sizebound_us", "us", t.mean("ftree.sizebound", "replay")/us)

	var facts planFacts
	for _, f := range t.static {
		facts.ops += f.ops
		facts.estCost += f.estCost
		facts.actualCost += f.actualCost
		facts.peak += f.peak
		facts.out += f.out
		facts.baseSingleton += f.baseSingleton
		facts.baseBytes += f.baseBytes
	}
	n := float64(replayed)
	r.put("plan.ops_per_plan", "count", ratio(float64(facts.ops), n))
	r.put("plan.est_cost", "count", ratio(facts.estCost, n))
	r.put("plan.est_over_actual", "ratio", ratio(facts.estCost, facts.actualCost))
	r.put("fops.peak_singletons", "count", ratio(float64(facts.peak), n))
	r.put("fops.out_singletons", "count", ratio(float64(facts.out), n))
	r.put("frep.base_singletons", "count", ratio(float64(facts.baseSingleton), n))
	r.put("frep.bytes_per_singleton", "B", ratio(float64(facts.baseBytes), float64(facts.baseSingleton)))

	exec := t.mean("engine.exec", "warm")
	open := t.mean("engine.rows_open", "warm")
	enum := t.mean("frep.enumerate", "warm")
	encode := t.mean("server.encode", "warm")
	rows := t.mean("rows", "warm") // per request
	r.put("engine.first_exec_ms", "ms", t.mean("engine.exec", "cold")/ms)
	r.put("engine.exec_ms", "ms", exec/ms)
	r.put("engine.rows_open_us", "us", open/us)
	r.put("engine.par_queries", "1/op", ratio(float64(m.par.Queries), ops))
	r.put("engine.par_workers", "1/op", ratio(float64(m.par.EnumWorkers+m.par.OpWorkers+m.par.EvalWorkers), ops))
	r.put("engine.par_enum_workers", "1/op", ratio(float64(m.par.EnumWorkers), ops))
	r.put("engine.par_op_workers", "1/op", ratio(float64(m.par.OpWorkers), ops))
	r.put("engine.par_eval_workers", "1/op", ratio(float64(m.par.EvalWorkers), ops))
	r.put("engine.seek_share", "ratio", ratio(float64(m.offsets.SeekOffsets), float64(m.offsets.SeekOffsets+m.offsets.SkipOffsets)))
	r.put("frep.build_ms", "ms", t.mean("frep.build", "replay")/ms)
	r.put("frep.clone_us", "us", t.mean("frep.clone", "replay")/us)
	r.put("frep.enum_ns_per_row", "ns", ratio(enum, rows))
	kernel := float64(kernels.SelectKernel + kernels.AggKernel + kernels.Find + kernels.Intersect)
	scalar := float64(kernels.SelectFallback + kernels.AggFallback + kernels.FindFallback + kernels.IntersectFallback)
	r.put("frep.kernel_share", "ratio", ratio(kernel, kernel+scalar))

	opsNs := 0.0
	byKind := map[string]float64{}
	for _, k := range []string{"merge", "absorb", "swap", "gamma", "select", "remove", "rename"} {
		byKind[k] = t.mean("fops."+k, "replay")
		opsNs += byKind[k]
	}
	r.put("fops.ops_ms", "ms", opsNs/ms)
	for _, k := range []string{"merge", "absorb", "swap", "gamma", "select", "remove"} {
		r.put("fops."+k+"_share", "ratio", ratio(byKind[k], opsNs))
	}

	r.put("server.encode_ns_per_row", "ns", ratio(encode, rows))
	inProc := t.mean("request", r.w.httpKind)
	http := r.httpMean() * ms
	r.put("server.transport_ms", "ms", (http-inProc)/ms)
	r.put("server.stats_p50_ms", "ms", m.serverP50)

	flat := 0.0
	for st := range t.prep {
		flat += st.flatMs
	}
	flat = ratio(flat, float64(len(t.prep)))
	r.put("rdb.flat_ms", "ms", flat)
	planned := func(name string) float64 { return t.meanWhere(name, "replay", "warm") } // the classes flat covers
	r.put("rdb.speedup_x", "x", ratio(flat*ms, planned("engine.exec")+planned("engine.rows_open")+planned("frep.enumerate")))

	r.put("process.alloc_kb_per_op", "KiB", ratio(float64(m.allocBytes)/1024, ops))
	r.put("process.allocs_per_op", "count", ratio(float64(m.mallocs), ops))
	r.put("process.heap_peak_mb", "MiB", float64(m.heapPeak)/(1<<20))
	r.put("process.gc_pause_ms", "ms", float64(m.gcPauseNs)/ms)

	r.put("trace.coverage", "ratio", ratio(inProc, http))
	r.put("trace.exec_replay_ratio", "ratio", ratio(t.mean("frep.clone", "replay")+opsNs, planned("engine.exec")))
	r.put("trace.overhead_ratio", "ratio", ratio(t.mean("request", "warm"), t.mean("request", "untraced")))
	r.put("trace.request_self_us", "us", t.mean("request.self", requestKinds...)/us)
	// Beside client.<class>.p50_ms: the same class's in-process request,
	// of the kind the measured traffic pays.
	for class, ss := range t.samples {
		var xs []float64
		for _, s := range ss {
			if s.kind == r.w.httpKind {
				xs = append(xs, s.ns["request"]/ms)
			}
		}
		if len(xs) > 0 {
			r.put("trace."+class+".request_ms", "ms", median(xs))
		}
	}
	r.put("trace.spans", "count", float64(len(t.spans)))
}
