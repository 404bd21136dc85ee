package fdb_test

// View wire-format pin. testdata/view_v1.bin (the paper's view R1 at
// scale 1) and testdata/view_v1_agg.bin (R1 aggregated per package and
// date: a vector-valued and a scalar aggregate leaf) were written by
// fdb.WriteView at the commit before the pointer representation was
// removed. Views saved by earlier releases must keep loading, answer
// queries as the flat baseline does, and re-encode to the same bytes.

import (
	"bytes"
	"os"
	"testing"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/workload"
)

// loadViewFixture reads a committed view and checks that writing it
// back reproduces the file byte for byte.
func loadViewFixture(t *testing.T, path string) *fdb.Factorisation {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	view, err := fdb.ReadView(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var out bytes.Buffer
	if err := fdb.WriteView(&out, view); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), raw) {
		t.Fatalf("%s: WriteView(ReadView(file)) is %d bytes and differs from the %d-byte file", path, out.Len(), len(raw))
	}
	return view
}

func TestViewFixtureAnswersLikeBaseline(t *testing.T) {
	view := loadViewFixture(t, "testdata/view_v1.bin")
	d := workload.Generate(workload.Config{Scale: 1})
	r1, err := d.FlatR1()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.FlatR2()
	if err != nil {
		t.Fatal(err)
	}
	flat := rdb.DB{"R1": r1, "R2": r2}
	run := func(q *query.Query) (got, want *relation.Relation) {
		t.Helper()
		res, err := fdb.NewEngine().RunOnView(q, view, d.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		if got, err = res.Relation(); err != nil {
			t.Fatal(err)
		}
		if want, err = rdb.New().Run(q, flat); err != nil {
			t.Fatal(err)
		}
		return got, want
	}

	got, want := run(workload.Q2())
	if !relation.EqualAsSets(got, want) {
		t.Errorf("Q2 on the loaded view: %v\nbaseline: %v", got, want)
	}

	// Q10 is SELECT * ORDER BY package, date, item: the same rows (over
	// the flat join's columns), with the sort keys in baseline order.
	got, want = run(workload.Q10(0))
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("Q10: %d rows, baseline %d", len(got.Tuples), len(want.Tuples))
	}
	for _, key := range []string{"package", "date", "item"} {
		g, w := got.ColIndex(key), want.ColIndex(key)
		for i := range want.Tuples {
			if fdb.GoValue(got.Tuples[i][g]) != fdb.GoValue(want.Tuples[i][w]) {
				t.Fatalf("Q10 row %d: %s = %v, baseline %v", i, key, got.Tuples[i][g], want.Tuples[i][w])
			}
		}
	}
	proj, err := got.Project(want.Attrs...)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualAsSets(proj, want) {
		t.Error("Q10 on the loaded view returns different rows from the baseline")
	}
}

// TestAggViewFixtureComposes loads the view with aggregate leaves and
// aggregates further over them: the stored partial sums and counts must
// compose (Proposition 2) to the baseline's answer over the flat join.
func TestAggViewFixtureComposes(t *testing.T) {
	view := loadViewFixture(t, "testdata/view_v1_agg.bin")
	if n := len(view.Tree.AggNodes()); n != 2 {
		t.Fatalf("fixture has %d aggregate nodes, want 2", n)
	}
	d := workload.Generate(workload.Config{Scale: 1})
	r1, err := d.FlatR1()
	if err != nil {
		t.Fatal(err)
	}
	q, err := fdb.ParseSQL(`SELECT package, SUM(price) AS revenue, COUNT(*) AS n FROM R1 GROUP BY package`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fdb.NewEngine().RunOnView(q, view, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	got, err := res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	want, err := rdb.New().Run(q, rdb.DB{"R1": r1})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualAsSets(got, want) {
		t.Errorf("aggregate over the loaded partial aggregates: %v\nbaseline: %v", got, want)
	}
}
