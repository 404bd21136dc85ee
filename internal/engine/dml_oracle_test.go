package engine

// DML oracle: seeded random sequences of INSERT, DELETE and UPSERT (with
// a compaction part-way through) against a mutable catalogue, checked
// after every statement against the plain tuple-set mirror of
// golden_dml_test.go — rows affected, the published view and its
// factorisations (byte-identical to catalog.Build's), and two queries
// through Exec against the flat baseline over the mirror. The
// compacted snapshot must equal SaveCatalog of the view, and the
// directory must reopen to the same view. FuzzMutableDML drives the
// same generator from fuzz bytes.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/workload"
)

// applyMirror applies mut to the mirror and returns the rows it affects,
// counted as the engine counts them, plus the rows it removed.
func applyMirror(mi mirror, attrs []string, mut *query.Mutation) (int64, []relation.Tuple) {
	rel := mut.Relation
	size := func() int64 { return int64(len(mi[rel])) }
	var removed []relation.Tuple
	del := func(match func(relation.Tuple) bool) int64 {
		before := size()
		mi.delete(rel, func(tp relation.Tuple) bool {
			if match(tp) {
				removed = append(removed, tp)
				return false
			}
			return true
		})
		return before - size()
	}
	switch mut.Op {
	case query.OpInsert:
		before := size()
		mi.insert(rel, mut.Rows...)
		return size() - before, nil
	case query.OpDelete:
		n := del(func(tp relation.Tuple) bool {
			for _, f := range mut.Where {
				c := -1
				for j, a := range attrs {
					if a == f.Attr {
						c = j
					}
				}
				if !f.Op.Holds(tp[c], f.Const) {
					return false
				}
			}
			return true
		})
		return n, removed
	default: // query.OpUpsert
		var n int64
		for _, r := range mut.Rows {
			key := r[0]
			n += del(func(tp relation.Tuple) bool { return values.Compare(tp[0], key) == 0 })
			before := size()
			mi.insert(rel, r)
			n += size() - before
		}
		return n, removed
	}
}

// dmlGen draws random mutations over a database's value domains.
type dmlGen struct {
	rng     *rand.Rand
	mi      mirror
	attrs   map[string][]string
	names   []string
	pool    map[string][][]values.Value // per relation, per column
	gone    map[string][]relation.Tuple // rows deleted so far
	deletes int
}

func newDMLGen(rng *rand.Rand, db DB, mi mirror, attrs map[string][]string) *dmlGen {
	g := &dmlGen{rng: rng, mi: mi, attrs: attrs,
		pool: map[string][][]values.Value{}, gone: map[string][]relation.Tuple{}}
	for name, rel := range db {
		g.names = append(g.names, name)
		cols := make([][]values.Value, len(rel.Attrs))
		for c := range cols {
			seen := map[string]bool{}
			for _, tp := range rel.Tuples {
				if k := (relation.Tuple{tp[c]}).Key(); !seen[k] {
					seen[k] = true
					cols[c] = append(cols[c], tp[c])
				}
			}
			sort.Slice(cols[c], func(i, j int) bool { return values.Less(cols[c][i], cols[c][j]) })
			// Two values the base data does not hold, of the column's kind.
			for i := 0; i < 2; i++ {
				if cols[c][0].Kind() == values.String {
					cols[c] = append(cols[c], sv(fmt.Sprintf("fresh%d", i)))
				} else {
					cols[c] = append(cols[c], iv(int64(100000+i)))
				}
			}
		}
		g.pool[name] = cols
	}
	sort.Strings(g.names)
	return g
}

func (g *dmlGen) pick(rel string, c int) values.Value {
	col := g.pool[rel][c]
	return col[g.rng.Intn(len(col))]
}

func (g *dmlGen) row(rel string) []values.Value {
	r := make([]values.Value, len(g.attrs[rel]))
	for c := range r {
		r[c] = g.pick(rel, c)
	}
	return r
}

// existing returns a copy of a random row of ts, or a fresh random row
// when ts is empty.
func (g *dmlGen) existing(rel string, ts []relation.Tuple) []values.Value {
	if len(ts) == 0 {
		return g.row(rel)
	}
	return append([]values.Value{}, ts[g.rng.Intn(len(ts))]...)
}

var dmlCmpOps = []fops.CmpOp{fops.EQ, fops.NE, fops.LT, fops.LE, fops.GT, fops.GE}

// next draws the mutation for step i; the verbs rotate so every
// sequence exercises all three, and deletes cycle through every
// (attribute, operator) pair.
func (g *dmlGen) next(i int) *query.Mutation {
	rel := g.names[g.rng.Intn(len(g.names))]
	attrs := g.attrs[rel]
	switch i % 3 {
	case 0:
		mut := &query.Mutation{Op: query.OpInsert, Relation: rel}
		for k := 1 + g.rng.Intn(3); k > 0; k-- {
			var r []values.Value
			switch g.rng.Intn(3) {
			case 0:
				r = g.row(rel)
			case 1:
				r = g.existing(rel, g.mi[rel])
			default:
				r = g.existing(rel, g.gone[rel])
			}
			mut.Rows = append(mut.Rows, r)
		}
		return mut
	case 1:
		op := dmlCmpOps[g.deletes%len(dmlCmpOps)]
		c := (g.deletes / len(dmlCmpOps)) % len(attrs)
		g.deletes++
		where := []query.Filter{{Attr: attrs[c], Op: op, Const: g.pick(rel, c)}}
		if g.rng.Intn(2) == 0 {
			// Narrow it with an equality on the next attribute, so the
			// relations do not drain.
			c2 := (c + 1) % len(attrs)
			where = append(where, query.Filter{Attr: attrs[c2], Op: fops.EQ, Const: g.pick(rel, c2)})
		}
		return &query.Mutation{Op: query.OpDelete, Relation: rel, Where: where}
	default:
		// The key repeats inside the batch: the second row replaces the
		// first.
		key := g.pick(rel, 0)
		mut := &query.Mutation{Op: query.OpUpsert, Relation: rel}
		for k := 0; k < 2; k++ {
			r := g.row(rel)
			r[0] = key
			mut.Rows = append(mut.Rows, r)
		}
		if g.rng.Intn(2) == 0 {
			mut.Rows = append(mut.Rows, g.existing(rel, g.mi[rel]))
		}
		return mut
	}
}

// dmlOracleCase is one database the DML oracle writes to, with the
// queries it checks after every statement.
type dmlOracleCase struct {
	name    string
	db      func() DB
	seeds   int
	queries []string
}

const r1Join = ` FROM Orders, Packages, Items WHERE package = package2 AND item = item2`

var dmlOracleCases = []dmlOracleCase{
	{"pizzeria", pizzeriaDB, 4, []string{
		`SELECT customer, SUM(price) AS revenue FROM Orders, Pizzas, Items WHERE pizza = pizza2 AND item = item2 GROUP BY customer`,
		`SELECT pizza2, item, price FROM Pizzas, Items WHERE item = item2 ORDER BY price DESC, pizza2 LIMIT 4`,
	}},
	{"workload", func() DB { return DB(workload.Generate(workload.Config{Scale: 1}).DB()) }, 2, []string{
		`SELECT package, SUM(price) AS total` + r1Join + ` GROUP BY package`,
		`SELECT customer, date, package FROM Orders ORDER BY customer, date, package LIMIT 5`,
	}},
}

// dmlOracleSteps is the statements per sequence; compaction runs
// half-way.
const dmlOracleSteps = 36

func TestMutableDMLOracle(t *testing.T) {
	for _, tc := range dmlOracleCases {
		for seed := int64(1); seed <= int64(tc.seeds); seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				runDMLOracle(t, tc, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

// fuzzSource is a rand.Source replaying fuzz bytes: each draw is the
// next eight bytes, little-endian with the sign bit cleared, and zero
// once the bytes run out.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) Int63() int64 {
	var w [8]byte
	s.b = s.b[copy(w[:], s.b):]
	return int64(binary.LittleEndian.Uint64(w[:]) &^ (1 << 63))
}

func (s *fuzzSource) Seed(int64) {}

// dmlOracleDraws bounds the generator's draws in one oracle sequence
// (233 at most over the oracle's seeds), so a fuzz seed recorded from
// rand.NewSource replays the oracle's sequence exactly.
const dmlOracleDraws = 256

// FuzzMutableDML drives the DML oracle's statement generator from fuzz
// bytes: the first byte picks the database, the rest are the
// generator's random draws. It is seeded with the oracle's own
// sequences, and checks the same properties after every statement.
func FuzzMutableDML(f *testing.F) {
	for c, tc := range dmlOracleCases {
		for seed := int64(1); seed <= int64(tc.seeds); seed++ {
			src := rand.NewSource(seed)
			b := []byte{byte(c)}
			for i := 0; i < dmlOracleDraws; i++ {
				b = binary.LittleEndian.AppendUint64(b, uint64(src.Int63()))
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tc := dmlOracleCases[int(data[0])%len(dmlOracleCases)]
		runDMLOracle(t, tc, rand.New(&fuzzSource{data[1:]}))
	})
}

// runDMLOracle applies a sequence of statements drawn from rng to a
// mutable catalogue over tc's database, compacting half-way, and checks
// after every statement the rows affected, the view and its registered
// factorisations (diffViews: catalog.Build's bytes) and tc's queries
// against the flat baseline over the mirror. The compacted snapshot
// must be SaveCatalog's bytes of the view, and the directory must
// reopen to the same view after compaction and at the end.
func runDMLOracle(t *testing.T, tc dmlOracleCase, rng *rand.Rand) {
	db := tc.db()
	dir := filepath.Join(t.TempDir(), "cat")
	m, err := CreateMutable(dir, tc.name, db)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mi, attrs := mirror{}, map[string][]string{}
	for name, rel := range db {
		mi[name] = append([]relation.Tuple{}, rel.Tuples...)
		attrs[name] = rel.Attrs
	}
	eng := New()
	var preps []*Prepared
	for _, text := range tc.queries {
		q, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		prep, err := eng.Prepare(q, m.View())
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		preps = append(preps, prep)
	}
	g := newDMLGen(rng, db, mi, attrs)
	for i := 0; i < dmlOracleSteps; i++ {
		if i == dmlOracleSteps/2 {
			if err := m.Compact(context.Background()); err != nil {
				t.Fatal(err)
			}
			checkCompacted(t, m)
			checkReopened(t, m, mi.db(attrs))
		}
		mut := g.next(i)
		got := apply(t, m, mut)
		want, removed := applyMirror(mi, attrs[mut.Relation], mut)
		g.gone[mut.Relation] = append(g.gone[mut.Relation], removed...)
		if got != want {
			t.Fatalf("step %d: %s affected %d rows, want %d", i, mut, got, want)
		}
		diffViews(t, m, mi.db(attrs))
		flat := rdb.DB(mi.db(attrs))
		view := m.View()
		for _, prep := range preps {
			res := collectRows(t, func() (*Result, error) { return prep.Exec(view) })
			checkOracle(t, prep.Query, res, flat)
		}
	}
	checkReopened(t, m, mi.db(attrs))
}

// checkCompacted asserts the catalogue's one snapshot file is, byte for
// byte, SaveCatalog of its current view.
func checkCompacted(t *testing.T, m *MutableCatalog) {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(m.Dir(), "snap-*.fdbcat"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots after compaction: %v (%v)", snaps, err)
	}
	got, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := SaveCatalog(&want, m.Name(), m.View()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s: %d bytes, SaveCatalog of the view writes %d different ones", filepath.Base(snaps[0]), len(got), want.Len())
	}
}

// checkReopened asserts a copy of the catalogue's directory opens to
// the wanted view.
func checkReopened(t *testing.T, m *MutableCatalog, want DB) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "reopened")
	copyCatalogDir(t, m.Dir(), dir, "", 0)
	r, err := OpenMutable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	diffViews(t, r, want)
}
