// Integration tests: the full paper workload (queries Q1–Q13) evaluated
// by every engine configuration and cross-checked against the relational
// baseline at scale 2.
package fdb_test

import (
	"bytes"
	"testing"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/workload"
)

func TestWorkloadAllEnginesScale2(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-2 integration test skipped in -short mode")
	}
	fops.Paranoid = true
	defer func() { fops.Paranoid = false }()

	d := workload.Generate(workload.Config{Scale: 2})
	view, err := d.FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	fr3, err := d.FactorisedR3()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := d.FlatR1()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.FlatR2()
	if err != nil {
		t.Fatal(err)
	}
	r3, err := d.R3()
	if err != nil {
		t.Fatal(err)
	}
	flatDB := rdb.DB{"R1": r1, "R2": r2, "R3": r3}
	cat := d.Catalog()

	engines := map[string]*engine.Engine{
		"eager": {PartialAgg: true},
		"lazy":  {PartialAgg: false},
	}
	queries := map[string]*query.Query{
		"Q1": workload.Q1(), "Q2": workload.Q2(), "Q3": workload.Q3(),
		"Q4": workload.Q4(), "Q5": workload.Q5(), "Q6": workload.Q6(),
		"Q7": workload.Q7(), "Q8": workload.Q8(), "Q9": workload.Q9(),
	}
	for name, q := range queries {
		ref, err := rdb.New().Run(q, flatDB)
		if err != nil {
			t.Fatalf("%s rdb: %v", name, err)
		}
		refEager, err := (&rdb.Engine{Eager: true, Grouping: rdb.GroupHash}).Run(q, flatDB)
		if err != nil {
			t.Fatalf("%s rdb eager: %v", name, err)
		}
		if !relation.EqualAsSets(ref, refEager) {
			t.Fatalf("%s: rdb lazy and eager disagree", name)
		}
		for mode, e := range engines {
			res, err := e.RunOnView(q, view, cat)
			if err != nil {
				t.Errorf("%s [%s]: %v", name, mode, err)
				continue
			}
			got, err := res.Relation()
			if err != nil {
				t.Errorf("%s [%s]: %v", name, mode, err)
				continue
			}
			if !relation.EqualAsSets(got, ref) {
				t.Errorf("%s [%s]: FDB %d rows, RDB %d rows", name, mode, got.Cardinality(), ref.Cardinality())
			}
		}
	}

	// ORD queries: row counts against the baseline, plus order checks via
	// the ordered enumeration tests in internal packages.
	for name, tc := range map[string]struct {
		q *query.Query
		v *fops.ARel
	}{
		"Q10": {workload.Q10(0), view},
		"Q11": {workload.Q11(0), view},
		"Q12": {workload.Q12(0), view},
		"Q13": {workload.Q13(0), fr3},
	} {
		ref, err := rdb.New().Run(tc.q, flatDB)
		if err != nil {
			t.Fatalf("%s rdb: %v", name, err)
		}
		res, err := engine.New().RunOnView(tc.q, tc.v, cat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, err := res.Count()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != ref.Cardinality() {
			t.Errorf("%s: %d rows, want %d", name, n, ref.Cardinality())
		}
	}
}

func TestViewSerialisationRoundTripWorkload(t *testing.T) {
	d := workload.Generate(workload.Config{Scale: 1})
	viewFR, err := d.FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	view := (*fdb.Factorisation)(viewFR)
	var buf bytes.Buffer
	if err := fdb.WriteView(&buf, view); err != nil {
		t.Fatal(err)
	}
	back, err := fdb.ReadView(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Singletons() != view.Singletons() {
		t.Fatalf("singletons changed: %d vs %d", back.Singletons(), view.Singletons())
	}
	// The reloaded view must be queryable.
	q, err := fdb.ParseSQL(`SELECT customer, SUM(price) AS revenue FROM V GROUP BY customer ORDER BY revenue DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fdb.NewEngine().RunOnView(q, back, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := res.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 3 {
		t.Errorf("rows = %d, want 3", rel.Cardinality())
	}
}
