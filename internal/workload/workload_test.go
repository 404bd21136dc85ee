package workload

import (
	"testing"

	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
)

func init() { fops.Paranoid = true }

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Scale: 1})
	b := Generate(Config{Scale: 1})
	if !relation.EqualAsSets(a.Orders, b.Orders) ||
		!relation.EqualAsSets(a.Packages, b.Packages) ||
		!relation.EqualAsSets(a.Items, b.Items) {
		t.Error("generation is not deterministic")
	}
	c := Generate(Config{Scale: 1, Seed: 42})
	if relation.EqualAsSets(a.Orders, c.Orders) {
		t.Error("different seeds should give different data")
	}
}

func TestGeneratedShapes(t *testing.T) {
	d := Generate(Config{Scale: 2})
	s := 2
	if got, want := len(d.Packages.Attrs), 2; got != want {
		t.Errorf("Packages arity = %d", got)
	}
	// 4s packages × 4s items each.
	if got, want := d.Packages.Cardinality(), 4*s*4*s; got != want {
		t.Errorf("|Packages| = %d, want %d", got, want)
	}
	// Orders ≈ 4s × 8s × 2s = 64s³ with binomial jitter; allow ±40%.
	want := 64 * s * s * s
	got := d.Orders.Cardinality()
	if got < want*6/10 || got > want*14/10 {
		t.Errorf("|Orders| = %d, want ≈%d", got, want)
	}
}

func TestFactorisedR1MatchesFlatJoin(t *testing.T) {
	d := Generate(Config{Scale: 1})
	fr, err := d.FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Check(); err != nil {
		t.Fatal(err)
	}
	// The f-tree must be the paper's T: package root, date→customer and
	// item→price branches.
	root := fr.Tree.Roots[0]
	if len(fr.Tree.Roots) != 1 || !root.HasAttr("package") {
		t.Fatalf("unexpected tree:\n%s", fr.Tree)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root should have 2 branches:\n%s", fr.Tree)
	}
	flat, err := fr.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := d.FlatR1()
	if err != nil {
		t.Fatal(err)
	}
	// Align: flattened view has the merged class columns; project to R1's.
	proj, err := flat.Project("customer", "date", "package", "item", "price")
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualAsSets(proj, r1.Dedup()) {
		t.Fatal("factorised R1 ≠ flat R1")
	}
}

func TestSizesGrowth(t *testing.T) {
	var reports []*SizeReport
	for _, s := range []int{1, 2, 4} {
		d := Generate(Config{Scale: s})
		rep, err := d.Sizes()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
		t.Logf("scale %d: join %d tuples, factorisation %d singletons, gap %.1f×",
			s, rep.JoinTuples, rep.FactSingletons, float64(rep.JoinTuples)/float64(rep.FactSingletons))
	}
	// Doubling the scale should multiply the join by ≈16 (s⁴) and the
	// factorisation by ≈8 (s³); allow generous slack for jitter.
	for i := 1; i < len(reports); i++ {
		jr := float64(reports[i].JoinTuples) / float64(reports[i-1].JoinTuples)
		fr := float64(reports[i].FactSingletons) / float64(reports[i-1].FactSingletons)
		if jr < 8 || jr > 32 {
			t.Errorf("join growth ratio %v, want ≈16", jr)
		}
		if fr < 4 || fr > 16 {
			t.Errorf("factorisation growth ratio %v, want ≈8", fr)
		}
		if jr <= fr {
			t.Errorf("join must grow faster than the factorisation (%v vs %v)", jr, fr)
		}
	}
}

// All thirteen queries agree between FDB and RDB at scale 1.
func TestAllQueriesDifferential(t *testing.T) {
	d := Generate(Config{Scale: 1})
	frView, err := d.FactorisedR1()
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
	fr3, err := d.FactorisedR3()
	if err != nil {
		t.Fatal(err)
	}
	rdbDB := rdb.DB{"R1": r1, "R2": r2, "R3": r3}
	e := engine.New()
	cat := d.Catalog()

	// AGG + AGG+ORD: Q1–Q9 on the factorised view vs RDB on flat R1.
	for name, qq := range map[string]*query.Query{
		"Q1": Q1(), "Q2": Q2(), "Q3": Q3(), "Q4": Q4(), "Q5": Q5(),
		"Q6": Q6(), "Q7": Q7(), "Q8": Q8(), "Q9": Q9(),
	} {
		want, err := rdb.New().Run(qq, rdbDB)
		if err != nil {
			t.Fatalf("%s rdb: %v", name, err)
		}
		res, err := e.RunOnView(qq, frView, cat)
		if err != nil {
			t.Fatalf("%s fdb: %v", name, err)
		}
		got, err := res.Relation()
		if err != nil {
			t.Fatalf("%s fdb enumerate: %v", name, err)
		}
		if !relation.EqualAsSets(got, want) {
			t.Errorf("%s: FDB ≠ RDB\nFDB: %v\nRDB: %v", name, got.Cardinality(), want.Cardinality())
		}
	}

	// ORD: Q10–Q12 on the factorised view; Q13 on factorised R3.
	for name, tc := range map[string]struct {
		q    *query.Query
		view *fops.ARel
	}{
		"Q10": {Q10(0), frView},
		"Q11": {Q11(0), frView},
		"Q12": {Q12(0), frView},
		"Q13": {Q13(0), fr3},
	} {
		want, err := rdb.New().Run(tc.q, rdbDB)
		if err != nil {
			t.Fatalf("%s rdb: %v", name, err)
		}
		res, err := e.RunOnView(tc.q, tc.view, cat)
		if err != nil {
			t.Fatalf("%s fdb: %v", name, err)
		}
		n, err := res.Count()
		if err != nil {
			t.Fatalf("%s fdb enumerate: %v", name, err)
		}
		// The flattened view includes duplicate join columns, so compare
		// cardinalities (the set equality of the underlying data is
		// covered by TestFactorisedR1MatchesFlatJoin).
		if n != want.Cardinality() {
			t.Errorf("%s: FDB %d rows, RDB %d rows", name, n, want.Cardinality())
		}
	}

	// LIMIT variants.
	for name, tc := range map[string]struct {
		q    *query.Query
		view *fops.ARel
	}{
		"Q10lim": {Q10(10), frView},
		"Q12lim": {Q12(10), frView},
		"Q13lim": {Q13(10), fr3},
	} {
		res, err := e.RunOnView(tc.q, tc.view, cat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, err := res.Count()
		if err != nil {
			t.Fatal(err)
		}
		if n != 10 {
			t.Errorf("%s: %d rows, want 10", name, n)
		}
	}
}
