package engine

// Golden persistence suite: a catalogue saved to bytes and loaded back
// must answer the whole workload query set byte-identically to the
// original in-memory database — through Run (fresh build per query) and
// through Prepare/ExecShared (which grafts the loaded factorisations).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
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
		// The prepared/shared path must agree too — this is the route
		// that grafts the loaded factorisations.
		p, err := eng.Prepare(mk(), cat.DB)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shared := renderRows(t, func() (*Result, error) { return p.ExecShared(cat.DB) })
		if !bytes.Equal(want, shared) {
			t.Errorf("%s: ExecShared on loaded catalogue differs", name)
		}
	}
}

func TestCatalogGraftPathUsed(t *testing.T) {
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

	eng := New()
	// Q13 orders R3 by its declared attributes, so its path keeps the
	// relation's own attribute order, which is exactly the order the
	// catalogue stores — the build must be served by a graft.
	p, err := eng.Prepare(workload.Q13(0), cat.DB)
	if err != nil {
		t.Fatal(err)
	}
	before := FactGrafts()
	res, err := p.Exec(cat.DB)
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	if FactGrafts() == before {
		t.Fatal("loaded catalogue did not serve the base-relation build via graft")
	}

	// After Close the registry entry is gone: the same query rebuilds
	// from flat tuples and still answers identically.
	want := renderRows(t, func() (*Result, error) { return p.Exec(cat.DB) })
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	before = FactGrafts()
	got := renderRows(t, func() (*Result, error) { return p.Exec(cat.DB) })
	if FactGrafts() != before {
		t.Fatal("closed catalogue still serving grafts")
	}
	if !bytes.Equal(want, got) {
		t.Fatal("post-Close rebuild differs from grafted execution")
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
