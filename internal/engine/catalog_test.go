package engine

// Golden persistence suite: a catalogue saved to bytes and loaded back
// must answer the whole workload query set byte-identically to the
// original in-memory database — through Run on the flat database and on
// the loaded one, whose registered bases serve its stored orders from
// the loaded factorisations.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/workload"
)

// workloadDB assembles the full workload database: the three base
// relations plus the flat views R1–R3 the paper's Q1–Q13 run against.
func workloadDB(t *testing.T) DB {
	t.Helper()
	ds := workload.Generate(workload.Config{Scale: 1})
	db := DB(ds.DB())
	r1, err := ds.FlatR1()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ds.FlatR2()
	if err != nil {
		t.Fatal(err)
	}
	r3, err := ds.R3()
	if err != nil {
		t.Fatal(err)
	}
	db["R1"], db["R2"], db["R3"] = r1, r2, r3
	return db
}

// workloadQueries returns the named query set Q1–Q13 plus the flat-input
// aggregation variants (which join the three base relations).
func workloadQueries(t *testing.T) map[string]func() *query.Query {
	t.Helper()
	qs := map[string]func() *query.Query{
		"Q6": workload.Q6, "Q7": workload.Q7, "Q8": workload.Q8, "Q9": workload.Q9,
		"Q10": func() *query.Query { return workload.Q10(0) },
		"Q11": func() *query.Query { return workload.Q11(10) },
		"Q12": func() *query.Query { return workload.Q12(0) },
		"Q13": func() *query.Query { return workload.Q13(10) },
	}
	for i := 1; i <= 5; i++ {
		i := i
		qs[fmt.Sprintf("Q%d", i)] = func() *query.Query {
			q, err := workload.AggQuery(i)
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
		qs[fmt.Sprintf("flat-Q%d", i)] = func() *query.Query {
			q, err := workload.FlatAggQuery(i)
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
	}
	return qs
}

// renderRows runs the query and renders every output row into one byte
// buffer, so equality checks are literally byte-wise.
func renderRows(t *testing.T, run func() (*Result, error)) []byte {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var buf bytes.Buffer
	for _, c := range res.Schema() {
		fmt.Fprintf(&buf, "%s\t", c)
	}
	buf.WriteByte('\n')
	ferr := res.ForEach(func(tp relation.Tuple) bool {
		for _, v := range tp {
			fmt.Fprintf(&buf, "%d:%s\t", v.Kind(), v.String())
		}
		buf.WriteByte('\n')
		return true
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	return buf.Bytes()
}

func TestCatalogGoldenWorkload(t *testing.T) {
	db := workloadDB(t)
	var snap bytes.Buffer
	if _, err := SaveCatalog(&snap, "workload", db); err != nil {
		t.Fatal(err)
	}
	cat, err := LoadCatalog(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if cat.Name != "workload" {
		t.Fatalf("catalogue name %q", cat.Name)
	}

	eng := New()
	for name, mk := range workloadQueries(t) {
		want := renderRows(t, func() (*Result, error) { return eng.Run(mk(), db) })
		got := renderRows(t, func() (*Result, error) { return eng.Run(mk(), cat.DB) })
		if !bytes.Equal(want, got) {
			t.Errorf("%s: load-then-query differs from build-then-query\nwant:\n%s\ngot:\n%s", name, want, got)
		}
		// The prepared path must agree too — this is the route that
		// reads the loaded factorisations as bases.
		p, err := eng.Prepare(mk(), cat.DB)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shared := renderRows(t, func() (*Result, error) { return p.Exec(cat.DB) })
		if !bytes.Equal(want, shared) {
			t.Errorf("%s: Exec on loaded catalogue differs", name)
		}
	}
}

// baseSetOf returns the bases rel carries, or nil when no query has
// read it.
func baseSetOf(rel *relation.Relation) *baseSet {
	s, _ := rel.Shared().(*baseSet)
	return s
}

// madeBase returns the base of rel in the given order if one has been
// made, or nil.
func madeBase(rel *relation.Relation, order []string) *base {
	if s := baseSetOf(rel); s != nil {
		return s.find(order)
	}
	return nil
}

// sameSlab reports whether union x of store a and union y of store b
// read one value slab in place.
func sameSlab(a *frep.Store, x frep.NodeID, b *frep.Store, y frep.NodeID) bool {
	return a.Len(x) > 0 && &a.Vals(x)[0] == &b.Vals(y)[0]
}

// plainCopy returns db with every relation under a new pointer that no
// query has read: its bases are built afresh from the flat tuples.
func plainCopy(db DB) DB {
	out := make(DB, len(db))
	for name, rel := range db {
		out[name] = &relation.Relation{Name: rel.Name, Attrs: rel.Attrs, Tuples: rel.Tuples}
	}
	return out
}

// TestCatalogServesStoredOrder: a plan whose path keeps a loaded
// relation's declared order runs from the catalogue's own factorisation
// with no build.
func TestCatalogServesStoredOrder(t *testing.T) {
	db := workloadDB(t)
	var snap bytes.Buffer
	if _, err := SaveCatalog(&snap, "workload", db); err != nil {
		t.Fatal(err)
	}
	cat, err := LoadCatalog(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	// Q13 orders R3 by its declared attributes, so its path keeps the
	// order the catalogue stores.
	p, err := New().Prepare(workload.Q13(0), cat.DB)
	if err != nil {
		t.Fatal(err)
	}
	rel := cat.DB["R3"]
	builds := baseBuilds.Load()
	want := renderRows(t, func() (*Result, error) { return p.Exec(cat.DB) })
	if d := baseBuilds.Load() - builds; d != 0 {
		t.Fatalf("the stored order took %d builds, want 0", d)
	}
	fact := cat.cat.Relations[slices.IndexFunc(cat.cat.Relations, func(r *catalog.Relation) bool { return r.Rel == rel })].Fact
	if b := madeBase(rel, p.Orders[0]); b == nil || !sameSlab(b.Store, b.Root, fact.Store, fact.Root) {
		t.Fatal("the stored order is not served from the catalogue's own store")
	}
	if got := renderRows(t, func() (*Result, error) { return p.Exec(plainCopy(cat.DB)) }); !bytes.Equal(want, got) {
		t.Fatal("a copy under a fresh pointer answers differently")
	}
	if d := baseBuilds.Load() - builds; d != 1 {
		t.Fatalf("a copy under a fresh pointer made %d bases, want 1 from its flat tuples", d)
	}
}

// TestBaseSharedAcrossShapes: statements of different shapes over one
// loaded relation share one base per path order. The catalogue's stored
// order is its own store, with zero builds; another order is built
// once, by whichever shape asks first, and both shapes then run from
// that one frozen store.
func TestBaseSharedAcrossShapes(t *testing.T) {
	db := workloadDB(t)
	var snap bytes.Buffer
	if _, err := SaveCatalog(&snap, "workload", db); err != nil {
		t.Fatal(err)
	}
	cat, err := LoadCatalog(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	rel := cat.DB["R3"]
	stored := rel.Attrs
	byDate := []string{"date", "customer", "package"}
	eng := New()
	for _, c := range []struct {
		text   string
		order  []string
		builds int64 // bases this statement's execution builds
	}{
		{`SELECT customer, date, package FROM R3 ORDER BY customer, date, package`, stored, 0},
		{`SELECT customer, COUNT(*) AS n FROM R3 GROUP BY customer ORDER BY customer`, stored, 0},
		{`SELECT date, customer, package FROM R3 ORDER BY date, customer, package`, byDate, 1},
		{`SELECT date, COUNT(*) AS n FROM R3 GROUP BY date ORDER BY date`, byDate, 0},
	} {
		q, err := sql.Parse(c.text)
		if err != nil {
			t.Fatal(err)
		}
		p, err := eng.Prepare(q, cat.DB)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(p.Orders[0], c.order) {
			t.Fatalf("%s: path %v, want %v", c.text, p.Orders[0], c.order)
		}
		builds := baseBuilds.Load()
		res, err := p.Exec(cat.DB)
		if err != nil {
			t.Fatal(err)
		}
		b := madeBase(rel, c.order)
		if b == nil {
			t.Fatalf("%s: no base registered for %v", c.text, c.order)
		}
		if len(p.Plan.Ops) == 0 && !sameSlab(res.ARel.Store, res.ARel.Roots[0], b.Store, b.Root) {
			t.Fatalf("%s: the operator-free plan does not read the base in place", c.text)
		}
		checkOracle(t, q, collectRows(t, func() (*Result, error) { return res, nil }), rdb.DB(db))
		if d := baseBuilds.Load() - builds; d != c.builds {
			t.Fatalf("%s: %d builds, want %d", c.text, d, c.builds)
		}
	}
	if n := len(*baseSetOf(rel).built.Load()); n != 2 {
		t.Fatalf("%d bases for R3, want one per order (2)", n)
	}
	fact := cat.cat.Relations[slices.IndexFunc(cat.cat.Relations, func(r *catalog.Relation) bool { return r.Rel == rel })].Fact
	if b := madeBase(rel, stored); !sameSlab(b.Store, b.Root, fact.Store, fact.Root) {
		t.Fatal("the stored order is not served from the catalogue's own store")
	}
}

func TestCatalogFileRoundTrip(t *testing.T) {
	db := workloadDB(t)
	path := filepath.Join(t.TempDir(), "workload.fdbcat")
	if err := SaveCatalogFile(path, "workload", db); err != nil {
		t.Fatal(err)
	}
	// The write must be atomic: no temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected only the snapshot in the directory, found %d entries", len(entries))
	}
	eng := New()
	for _, mmap := range []bool{false, true} {
		cat, err := LoadCatalogFile(path, mmap)
		if err != nil {
			t.Fatal(err)
		}
		want := renderRows(t, func() (*Result, error) { return eng.Run(workload.Q2(), db) })
		got := renderRows(t, func() (*Result, error) { return eng.Run(workload.Q2(), cat.DB) })
		if !bytes.Equal(want, got) {
			t.Errorf("mmap=%v: loaded catalogue answers differently", mmap)
		}
		if err := cat.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadCatalogFile(filepath.Join(t.TempDir(), "absent.fdbcat"), false); err == nil {
		t.Fatal("loading a missing file did not error")
	}
}

// TestBaseOrdersBounded: however many path orders clients' statements
// pick over one relation, it keeps at most maxBaseOrders
// bases, dropping the one unused longest, and every statement still
// answers correctly.
func TestBaseOrdersBounded(t *testing.T) {
	db := workloadDB(t)
	var snap bytes.Buffer
	if _, err := SaveCatalog(&snap, "workload", db); err != nil {
		t.Fatal(err)
	}
	cat, err := LoadCatalog(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	rel := cat.DB["R1"]
	eng := New()
	orders := map[string]bool{}
	hot := slices.Clone(rel.Attrs)
	slices.Reverse(hot)
	if _, err := baseFor(context.Background(), rel, hot); err != nil {
		t.Fatal(err)
	}
	for _, perm := range permutations(rel.Attrs) {
		text := fmt.Sprintf("SELECT %[1]s FROM R1 ORDER BY %[1]s", strings.Join(perm, ", "))
		q, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		p, err := eng.Prepare(q, cat.DB)
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, q, collectRows(t, func() (*Result, error) { return p.Exec(cat.DB) }), rdb.DB(db))
		orders[strings.Join(p.Orders[0], ",")] = true
		// The hot order is asked for between every two builds, so it is
		// never the one unused longest: it is never built again.
		builds := baseBuilds.Load()
		if _, err := baseFor(context.Background(), rel, hot); err != nil {
			t.Fatal(err)
		}
		if baseBuilds.Load() != builds {
			t.Fatal("the base in use between builds was dropped")
		}
		if n := len(*baseSetOf(rel).built.Load()); n > maxBaseOrders {
			t.Fatalf("%d bases, want at most %d", n, maxBaseOrders)
		}
	}
	if len(orders) <= maxBaseOrders {
		t.Fatalf("only %d distinct orders ran; the bound was not reached", len(orders))
	}
}

// permutations returns every ordering of xs.
func permutations(xs []string) [][]string {
	if len(xs) <= 1 {
		return [][]string{slices.Clone(xs)}
	}
	var out [][]string
	for i := range xs {
		rest := append(slices.Clone(xs[:i]), xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{xs[i]}, p...))
		}
	}
	return out
}
