package fdb_test

// View file-format pin. testdata/view_v2.bin (the paper's view R1 at
// scale 1) and testdata/view_v2_agg.bin (R1 aggregated per package and
// date: a vector-valued and a scalar aggregate leaf) hold an f-tree
// block plus an arena snapshot, as fdb.WriteView writes them. Saved
// views must keep loading, answer queries as the flat baseline does,
// and re-encode to the same bytes.

import (
	"bytes"
	"os"
	"testing"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
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
	view := loadViewFixture(t, "testdata/view_v2.bin")
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
	view := loadViewFixture(t, "testdata/view_v2_agg.bin")
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

// TestViewKeepsSharingAndDropsDeadNodes pins the store compaction
// WriteView performs: a union shared by two parents is written once and
// loads shared, nodes no root reaches are left out, and writing a loaded
// view reproduces the file.
func TestViewKeepsSharingAndDropsDeadNodes(t *testing.T) {
	// pizza → item, two pizzas sharing one item union, plus a dead leaf.
	f := ftree.New()
	f.NewRelationPath("pizza", "item")
	s := frep.NewStore()
	s.AddLeaf([]values.Value{values.NewString("dead")})
	items := s.AddLeaf([]values.Value{values.NewString("base"), values.NewString("ham")})
	root := s.Add([]values.Value{values.NewString("Capricciosa"), values.NewString("Margherita")}, 1,
		[]frep.NodeID{items, items})
	shared, _ := writeAndRead(t, &fdb.Factorisation{Tree: f, Store: s, Roots: []frep.NodeID{root}})
	ls, lr := shared.Store, shared.Roots[0]
	if a, b := ls.Kid(lr, 0, 0), ls.Kid(lr, 1, 0); a != b {
		t.Errorf("shared item union loaded as two nodes %d and %d", a, b)
	}
	if n := ls.NodeCount(); n != 3 {
		t.Errorf("loaded store has %d nodes, want 3 (empty, items, pizzas)", n)
	}

	d := workload.Generate(workload.Config{Scale: 1})
	q, err := fdb.ParseSQL(`SELECT * FROM Orders, Packages, Items WHERE package = package2 AND item = item2`)
	if err != nil {
		t.Fatal(err)
	}
	view, err := fdb.MaterialiseView(fdb.NewEngine(), q, d.DB())
	if err != nil {
		t.Fatal(err)
	}
	reach := reachableNodes(view.Store, view.Roots)
	if reach+1 >= view.Store.NodeCount() {
		t.Fatalf("materialised store has %d nodes, %d reachable: no dead nodes to drop", view.Store.NodeCount(), reach)
	}
	loaded, file := writeAndRead(t, view)
	if n := loaded.Store.NodeCount(); n != reach+1 {
		t.Errorf("view file holds %d nodes, want the %d reachable ones plus the empty node", n, reach)
	}
	var again bytes.Buffer
	if err := fdb.WriteView(&again, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), file) {
		t.Error("writing the loaded view changed its bytes")
	}
}

// writeAndRead writes v and reads it back, returning the loaded view and
// the file bytes.
func writeAndRead(t *testing.T, v *fdb.Factorisation) (*fdb.Factorisation, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := fdb.WriteView(&buf, v); err != nil {
		t.Fatal(err)
	}
	loaded, err := fdb.ReadView(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return loaded, buf.Bytes()
}

// reachableNodes counts the distinct non-empty unions reachable from
// roots.
func reachableNodes(s *frep.Store, roots []frep.NodeID) int {
	seen := map[frep.NodeID]bool{}
	var walk func(id frep.NodeID)
	walk = func(id frep.NodeID) {
		if id == frep.EmptyNode || seen[id] {
			return
		}
		seen[id] = true
		for i := 0; i < s.Len(id); i++ {
			for _, k := range s.KidRow(id, i) {
				walk(k)
			}
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return len(seen)
}
