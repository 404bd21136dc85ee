package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/server"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/wal"
)

// The write_mix cycle, issued by the one client in this order:
//
//	INSERT insertRows rows → UPSERT upsertRows rows → DELETE the batch
//	inserted windowBatches cycles ago → read a4 → read o13desc
//
// with POST /compact after every compactEvery-th cycle (no timer-driven
// compaction, so counts repeat; 25, where the issue said 50, because a
// 10 s run then holds 15 compactions and not 7, and compact_p50_ms is
// their median). Once the window has filled, every
// cycle inserts and deletes the same number of rows: the live size is
// constant and the run is in steady state.
const (
	insertRows    = 32
	upsertRows    = 8
	windowBatches = 8
	compactEvery  = 25

	// Written rows use customers, dates and packages far above the
	// generated domains, so a batch is addressable by its date, the
	// upserted customers sort last, and no written row finds a join
	// partner in Packages.
	writeBase  = 1_000_000
	upsertBase = 2_000_000
)

// mixModel is the benchmark's own record of which Orders rows are live.
type mixModel struct {
	rng     *rand.Rand
	base    []relation.Tuple   // Orders as generated
	window  [][]relation.Tuple // live inserted batches, oldest first
	upserts []relation.Tuple   // current version of the upsertRows keyed rows
	cycle   int
	step    int
	broken  error // first violated invariant
}

func intTuple(vs ...int) relation.Tuple {
	t := make(relation.Tuple, len(vs))
	for i, v := range vs {
		t[i] = values.NewInt(int64(v))
	}
	return t
}

func valuesSQL(verb string, rows []relation.Tuple) string {
	var b strings.Builder
	b.WriteString(verb + " INTO Orders VALUES ")
	for i, t := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d)", t[0].Int(), t[1].Int(), t[2].Int())
	}
	return b.String()
}

// live returns the written rows currently live, and the total live row
// count of Orders.
func (m *mixModel) live() (written []relation.Tuple, total int) {
	for _, b := range m.window {
		written = append(written, b...)
	}
	written = append(written, m.upserts...)
	return written, len(m.base) + len(written)
}

// next advances the schedule by one operation, updating the model as if
// the operation had been acknowledged (the loop is closed: it will be,
// before the next one is scheduled).
func (m *mixModel) next(st map[string]*stmt) op {
	c := m.cycle
	switch m.step {
	case 0: // INSERT
		m.step++
		batch := make([]relation.Tuple, insertRows)
		for j := range batch {
			batch[j] = intTuple(writeBase+c*insertRows+j, writeBase+c, writeBase+m.rng.Intn(1000))
		}
		m.window = append(m.window, batch)
		return op{st: st["insert"], sql: valuesSQL("INSERT", batch), want: ref{rows: insertRows}}
	case 1: // UPSERT: replaces the previous version of each keyed row
		m.step++
		affected := upsertRows + len(m.upserts)
		m.upserts = make([]relation.Tuple, upsertRows)
		for k := range m.upserts {
			m.upserts[k] = intTuple(upsertBase+k, upsertBase+c, writeBase+m.rng.Intn(1000))
		}
		return op{st: st["upsert"], sql: valuesSQL("UPSERT", m.upserts), want: ref{rows: affected}}
	case 2: // DELETE the oldest batch once the window is full
		m.step++
		if len(m.window) <= windowBatches {
			return m.next(st)
		}
		m.window = m.window[1:]
		return op{st: st["delete"], sql: fmt.Sprintf("DELETE FROM Orders WHERE date = %d", writeBase+c-windowBatches), want: ref{rows: insertRows}}
	case 3:
		m.step++
		return op{st: st["a4"], sql: st["a4"].sql, want: st["a4"].want}
	case 4:
		m.step++
		// The descending top-10 is made of written rows only; the model
		// answers it without the flat baseline. It is the cycle's last
		// statement.
		written, total := m.live()
		if want := len(m.base) + windowBatches*insertRows + upsertRows; c >= windowBatches && total != want && m.broken == nil {
			m.broken = fmt.Errorf("cycle %d: %d live rows, want a constant %d", c, total, want)
		}
		sort.Slice(written, func(i, j int) bool { return relation.Compare(written[i], written[j]) > 0 })
		want, err := hashTuples(written[:min(10, len(written))], true)
		if err != nil && m.broken == nil {
			m.broken = err
		}
		return op{st: st["o13desc"], sql: st["o13desc"].sql, want: want, endsCycle: true}
	default:
		m.step = 0
		m.cycle++
		if m.cycle%compactEvery == 0 {
			return op{st: st["compact"], endsPeriod: true}
		}
		return m.next(st)
	}
}

// mixEnv is write_mix's serving stack.
type mixEnv struct {
	m   *fdb.MutableCatalog
	dir string
	// full is the catalogue's counters just before the traced run's
	// compaction, when deltas, tombstones and the log are at their largest.
	full fdb.MutableStats
}

func setupMutable(r *run, dir string) (*env, error) {
	dir = filepath.Join(dir, "mutable")
	m, err := fdb.CreateMutable(dir, "bench", engine.DB(r.flat))
	if err != nil {
		return nil, err
	}
	e := &env{db: m.View, extra: &mixEnv{m: m, dir: dir}}
	e.stop = append(e.stop, func() { _ = m.Close() })
	srv, err := server.New(server.Config{Mutables: map[string]*fdb.MutableCatalog{"bench": m}})
	if err != nil {
		e.close()
		return nil, err
	}
	e.servers = []*server.Server{srv}
	url, stop, err := listen(srv)
	if err != nil {
		e.close()
		return nil, err
	}
	e.url = url
	e.stop = append(e.stop, stop)
	return e, nil
}

func mixStatements(*run) ([]*stmt, error) {
	write := func(name string, kind opKind) *stmt { return &stmt{name: name, class: name, kind: kind} }
	o13desc := read("o13desc", r3Desc+` LIMIT 10`, true)
	o13desc.dynamic = true
	return []*stmt{
		write("insert", kindExec), write("upsert", kindExec), write("delete", kindExec),
		read("a4", byPackage, false), o13desc,
		write("compact", kindCompact),
	}, nil
}

func mixSchedule(r *run) func() op {
	byName := map[string]*stmt{}
	for _, st := range r.stmts {
		byName[st.name] = st
	}
	m := &mixModel{rng: rand.New(rand.NewSource(r.opts.seed)), base: r.flat["Orders"].Tuples}
	r.data = m
	return func() op { return m.next(byName) }
}

// mixTraceWrite applies one scheduled write directly, as the server's
// /exec and /compact handlers do.
func mixTraceWrite(r *run, t *tracer, o op) error {
	me := r.env.extra.(*mixEnv)
	m := me.m
	ctx := context.Background()
	if o.st.kind == kindCompact {
		me.full = m.Stats()
	}
	id, first := t.openRoot("write", o.st)
	defer func() { t.samples[o.st.class] = append(t.samples[o.st.class], t.closeRoot(id, first, "write")) }()
	if o.st.kind == kindCompact {
		sp := t.begin("mutable.compact")
		err := m.Compact(ctx)
		t.end(sp)
		return err
	}
	sp := t.begin("sql.parse")
	parsed, err := sql.ParseStatement(o.sql)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("mutable.apply")
	n, err := m.Apply(ctx, parsed.(*fdb.Mutation))
	t.end(sp)
	t.count(sp, "rows", int(n))
	return err
}

// mixTraceExtra reports the write path's own layers: the direct Apply
// and Compact times from the traced cycles (which span one compaction
// period, so one scheduled compaction is among them), what a read pays
// for the base snapshot rebuilt after a write, what the catalogue held
// when that compaction began, and a bare WAL append of the same record
// size.
func mixTraceExtra(r *run, t *tracer) error {
	const us, ms = 1e3, 1e6
	r.put("mutable.apply_us", "us", t.mean("mutable.apply", "write")/us)
	r.put("mutable.compact_ms", "ms", t.mean("mutable.compact", "write")/ms)
	r.put("mutable.resnapshot_ms", "ms", (t.mean("engine.exec", "stale")-t.mean("engine.exec", "warm"))/ms)
	r.put("mutable.view_ms", "ms", t.mean("engine.view", "stale")/ms)

	st := r.env.extra.(*mixEnv).full
	r.put("mutable.delta_rows", "count", float64(st.DeltaRows))
	r.put("mutable.tombstone_rows", "count", float64(st.TombstoneRows))
	r.put("wal.bytes_per_record", "B", ratio(float64(st.WALBytes), float64(st.WALRecords)))
	r.put("wal.records_per_sync", "ratio", ratio(float64(st.WALRecords), float64(st.WALSyncs)))
	record := 1024
	if st.WALRecords > 0 {
		record = int(st.WALBytes / st.WALRecords)
	}
	log, err := wal.Create(filepath.Join(r.dir, "probe.wal"))
	if err != nil {
		return err
	}
	payload := make([]byte, record)
	var appendUs []float64
	for i := 0; i < 64; i++ {
		start := time.Now()
		if err := log.AppendSync(payload); err != nil {
			log.Close()
			return err
		}
		appendUs = append(appendUs, float64(time.Since(start))/us)
	}
	r.put("wal.append_sync_us", "us", median(appendUs))
	return log.Close()
}

// mixFinish checks the model's invariant, then durability: stop
// serving, close the catalogue, reopen it from its directory alone
// (snapshot + WAL replay) and compare with the flat baseline over the
// model's live rows. The check is one operation.
func mixFinish(r *run) error {
	c := r.col
	me := r.env.extra.(*mixEnv)
	model := r.data.(*mixModel)
	if model.broken != nil {
		c.fail("write_mix model", model.broken)
	}
	r.env.close()
	if err := durable(me.dir, r.flat, model, r.stmts); err != nil {
		c.fail("write_mix reopen", err)
	} else {
		c.attempted++
	}
	return nil
}

// durable reopens the mutable catalogue and compares it with the model.
func durable(dir string, flat rdb.DB, model *mixModel, stmts []*stmt) error {
	m, err := fdb.OpenMutable(dir)
	if err != nil {
		return err
	}
	defer m.Close()
	view := m.View()
	written, total := model.live()
	want := rdb.DB{"Packages": flat["Packages"], "Items": flat["Items"]}
	orders := append(append([]relation.Tuple{}, model.base...), written...)
	if want["Orders"], err = relation.New("Orders", flat["Orders"].Attrs, orders); err != nil {
		return err
	}
	if got := len(view["Orders"].Tuples); got != total {
		return fmt.Errorf("reopened Orders has %d rows, the model %d", got, total)
	}
	orc := newOracle(want)
	eng := fdb.NewEngine()
	for _, st := range stmts {
		if !st.isRead() {
			continue
		}
		expect, _, err := orc.answer(st)
		if err != nil {
			return err
		}
		q, err := sql.Parse(st.sql)
		if err != nil {
			return err
		}
		res, err := eng.Run(q, view)
		if err != nil {
			return err
		}
		rel, err := res.Relation()
		res.Close()
		if err != nil {
			return err
		}
		got, err := hashTuples(rel.Tuples, st.ordered)
		if err != nil {
			return err
		}
		if got != expect {
			return fmt.Errorf("after reopen %s returns %d rows hash %x, the flat baseline %d rows hash %x", st.name, got.rows, got.hash, expect.rows, expect.hash)
		}
	}
	return nil
}
