// Package workload implements the synthetic dataset and query set of the
// paper's experimental evaluation (Section 6, Figure 3): the scaled
// Orders/Packages/Items database, the materialised views R1 (flat and
// factorised over the paper's f-tree T), R2 and R3, and the queries
// Q1–Q13 grouped into the AGG, AGG+ORD and ORD families.
//
// The generator is calibrated so that the natural join R1 grows as ~256·s⁴
// tuples while its factorisation over T grows as ~64·s³ singletons,
// matching the asymptotics and magnitudes reported in Section 6 (280M
// tuples vs 4.2M singletons at scale 32); Generate lists the constants
// that achieve this.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// Config controls dataset generation.
type Config struct {
	// Scale is the paper's scale factor s ≥ 1.
	Scale int
	// Seed makes generation deterministic; 0 selects a fixed default.
	Seed int64
}

// Dataset holds the three base relations at one scale factor. Attribute
// names are globally unique (package2/item2 are the join copies), as the
// engines require.
type Dataset struct {
	Scale    int
	Orders   *relation.Relation // (customer, date, package)
	Packages *relation.Relation // (package2, item)
	Items    *relation.Relation // (item2, price)
}

// Generate builds the dataset for the given configuration:
//
//	packages:            4·s
//	order dates/package: Binomial(16·s, ½)  (mean 8·s) out of 800·s dates
//	customers/(pkg,date): Binomial(4·s, ½)  (mean 2·s) of 100·s customers
//	items/package:       4·s of a 100·√s item universe
//	price/item:          uniform 1..20
func Generate(cfg Config) *Dataset {
	s := cfg.Scale
	if s < 1 {
		s = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 20130701 // arXiv v1 date of the paper
	}
	rng := rand.New(rand.NewSource(seed))

	nPackages := 4 * s
	nDates := 800 * s
	nCustomers := 100 * s
	nItems := int(math.Ceil(100 * math.Sqrt(float64(s))))
	itemsPerPackage := 4 * s
	if itemsPerPackage > nItems {
		itemsPerPackage = nItems
	}

	// Items(item2, price).
	itemTuples := make([]relation.Tuple, nItems)
	for i := 0; i < nItems; i++ {
		itemTuples[i] = relation.Tuple{
			values.NewInt(int64(i)),
			values.NewInt(int64(1 + rng.Intn(20))),
		}
	}
	items := relation.MustNew("Items", []string{"item2", "price"}, itemTuples)

	// Packages(package2, item): a sample of items per package.
	var pkgTuples []relation.Tuple
	pkgItems := make([][]int, nPackages)
	for p := 0; p < nPackages; p++ {
		perm := rng.Perm(nItems)[:itemsPerPackage]
		pkgItems[p] = perm
		for _, it := range perm {
			pkgTuples = append(pkgTuples, relation.Tuple{
				values.NewInt(int64(p)),
				values.NewInt(int64(it)),
			})
		}
	}
	packages := relation.MustNew("Packages", []string{"package2", "item"}, pkgTuples)

	// Orders(customer, date, package): per package a binomial number of
	// dates; per (package, date) a binomial number of customers.
	binom := func(n int) int {
		k := 0
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				k++
			}
		}
		if k == 0 {
			k = 1
		}
		return k
	}
	var orderTuples []relation.Tuple
	for p := 0; p < nPackages; p++ {
		nd := binom(16 * s)
		if nd > nDates {
			nd = nDates
		}
		dates := rng.Perm(nDates)[:nd]
		for _, d := range dates {
			nc := binom(4 * s)
			if nc > nCustomers {
				nc = nCustomers
			}
			custs := rng.Perm(nCustomers)[:nc]
			for _, c := range custs {
				orderTuples = append(orderTuples, relation.Tuple{
					values.NewInt(int64(c)),
					values.NewInt(int64(d)),
					values.NewInt(int64(p)),
				})
			}
		}
	}
	orders := relation.MustNew("Orders", []string{"customer", "date", "package"}, orderTuples)

	return &Dataset{Scale: s, Orders: orders, Packages: packages, Items: items}
}

// DB returns the dataset as an engine catalogue.
func (d *Dataset) DB() map[string]*relation.Relation {
	return map[string]*relation.Relation{
		"Orders":   d.Orders,
		"Packages": d.Packages,
		"Items":    d.Items,
	}
}

// Catalog returns relation metadata for the cost model.
func (d *Dataset) Catalog() []ftree.CatalogRelation {
	return []ftree.CatalogRelation{
		{Name: "Orders", Attrs: d.Orders.Attrs, Size: d.Orders.Cardinality()},
		{Name: "Packages", Attrs: d.Packages.Attrs, Size: d.Packages.Cardinality()},
		{Name: "Items", Attrs: d.Items.Attrs, Size: d.Items.Cardinality()},
	}
}

// R1Equalities are the join conditions of R1 = Orders ⋈ Packages ⋈ Items.
func R1Equalities() []query.Equality {
	return []query.Equality{
		{A: "package", B: "package2"},
		{A: "item", B: "item2"},
	}
}

// FactorisedR1 materialises the view R1 as a factorisation over the
// paper's f-tree T:
//
//	package
//	├─ date ─ customer
//	└─ item ─ price
//
// It is built bottom-up with f-plan operators (two merges and one swap)
// without ever materialising the flat join.
func (d *Dataset) FactorisedR1() (*fops.ARel, error) {
	s := frep.NewStore()
	f := ftree.New()
	var roots []frep.NodeID
	add := func(rel *relation.Relation, attrs ...string) error {
		f.NewRelationPath(attrs...)
		sub := ftree.New()
		sub.NewRelationPath(attrs...)
		rs, err := frep.BuildStoreUnchecked(s, rel, sub)
		if err != nil {
			return err
		}
		roots = append(roots, rs[0])
		return nil
	}
	// Path orders chosen so the merges cascade at the roots.
	if err := add(d.Orders, "package", "date", "customer"); err != nil {
		return nil, err
	}
	if err := add(d.Packages, "item", "package2"); err != nil {
		return nil, err
	}
	if err := add(d.Items, "item2", "price"); err != nil {
		return nil, err
	}
	ar := &fops.ARel{Tree: f, Store: s, Roots: roots}
	if err := ar.Merge("item", "item2"); err != nil {
		return nil, err
	}
	if err := ar.Swap("package2"); err != nil {
		return nil, err
	}
	if err := ar.Merge("package2", "package"); err != nil {
		return nil, err
	}
	return ar, nil
}

// FlatR1 materialises the flat view R1 (for the relational baseline),
// projecting away the duplicate join columns. This is O(|R1|) memory —
// 256·s⁴ tuples — so keep the scale modest.
func (d *Dataset) FlatR1() (*relation.Relation, error) {
	j := relation.NaturalJoinAll(
		d.Orders,
		renamed(d.Packages, "Packages", []string{"package", "item"}),
		renamed(d.Items, "Items", []string{"item", "price"}),
	)
	j.Name = "R1"
	return j, nil
}

func renamed(r *relation.Relation, name string, attrs []string) *relation.Relation {
	return &relation.Relation{Name: name, Attrs: attrs, Tuples: r.Tuples}
}

// FlatR2 is R1 sorted by (package, date, item) — the paper's materialised
// relation R2 for the ORD experiments.
func (d *Dataset) FlatR2() (*relation.Relation, error) {
	r1, err := d.FlatR1()
	if err != nil {
		return nil, err
	}
	r2 := r1.Clone()
	r2.Name = "R2"
	err = r2.Sort(
		relation.OrderKey{Attr: "package"},
		relation.OrderKey{Attr: "date"},
		relation.OrderKey{Attr: "item"},
	)
	return r2, err
}

// R3 is Orders sorted by (date, customer, package).
func (d *Dataset) R3() (*relation.Relation, error) {
	r3 := d.Orders.Clone()
	r3.Name = "R3"
	err := r3.Sort(
		relation.OrderKey{Attr: "date"},
		relation.OrderKey{Attr: "customer"},
		relation.OrderKey{Attr: "package"},
	)
	return r3, err
}

// FactorisedR3 factorises R3 over the linear path date→customer→package
// (its sort order).
func (d *Dataset) FactorisedR3() (*fops.ARel, error) {
	f := ftree.New()
	f.NewRelationPath("date", "customer", "package")
	return fops.FromRelationStoreUnchecked(frep.NewStore(), d.Orders, f)
}

// SizeReport holds the representation sizes at one scale (the paper's
// in-text table: 280M tuples vs 4.2M singletons at s=32).
type SizeReport struct {
	Scale          int
	JoinTuples     int64 // |R1|
	JoinSingletons int64 // |R1| × 5 attributes
	FactSingletons int   // singletons of the factorisation over T
}

// Sizes computes the size report without materialising the flat join.
func (d *Dataset) Sizes() (*SizeReport, error) {
	fr, err := d.FactorisedR1()
	if err != nil {
		return nil, err
	}
	n := fr.Store.CountPlain(fr.Roots[0])
	return &SizeReport{
		Scale:          d.Scale,
		JoinTuples:     n,
		JoinSingletons: n * 5,
		FactSingletons: fr.Singletons(),
	}, nil
}

// --- Figure 3: the query families -----------------------------------

// AGG queries Q1–Q5 over the view R1.

// Q1 = ϖ_{package,date,customer; sum(price)}(R1).
func Q1() *query.Query {
	return &query.Query{
		Relations:  []string{"R1"},
		GroupBy:    []string{"package", "date", "customer"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "total"}},
	}
}

// Q2 = ϖ_{customer; revenue←sum(price)}(R1).
func Q2() *query.Query {
	return &query.Query{
		Relations:  []string{"R1"},
		GroupBy:    []string{"customer"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "revenue"}},
	}
}

// Q3 = ϖ_{date,package; sum(price)}(R1).
func Q3() *query.Query {
	return &query.Query{
		Relations:  []string{"R1"},
		GroupBy:    []string{"date", "package"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "total"}},
	}
}

// Q4 = ϖ_{package; sum(price)}(R1).
func Q4() *query.Query {
	return &query.Query{
		Relations:  []string{"R1"},
		GroupBy:    []string{"package"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "total"}},
	}
}

// Q5 = ϖ_{; sum(price)}(R1).
func Q5() *query.Query {
	return &query.Query{
		Relations:  []string{"R1"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "total"}},
	}
}

// AGG+ORD queries Q6–Q9.

// Q6 = o_customer(Q2).
func Q6() *query.Query {
	q := Q2()
	q.OrderBy = []query.OrderItem{{Attr: "customer"}}
	return q
}

// Q7 = o_revenue(Q2).
func Q7() *query.Query {
	q := Q2()
	q.OrderBy = []query.OrderItem{{Attr: "revenue"}}
	return q
}

// Q8 = o_{date,package}(Q3).
func Q8() *query.Query {
	q := Q3()
	q.OrderBy = []query.OrderItem{{Attr: "date"}, {Attr: "package"}}
	return q
}

// Q9 = o_{package,date}(Q3).
func Q9() *query.Query {
	q := Q3()
	q.OrderBy = []query.OrderItem{{Attr: "package"}, {Attr: "date"}}
	return q
}

// ORD queries Q10–Q13 (optionally with LIMIT 10 — pass limit > 0).

// Q10 enumerates R2 in its existing order (package, date, item).
func Q10(limit int) *query.Query {
	return &query.Query{
		Relations: []string{"R2"},
		OrderBy: []query.OrderItem{
			{Attr: "package"}, {Attr: "date"}, {Attr: "item"},
		},
		Limit: limit,
	}
}

// Q11 = o_{package,item,date}(R2): a different order that the same f-tree
// supports without restructuring.
func Q11(limit int) *query.Query {
	return &query.Query{
		Relations: []string{"R2"},
		OrderBy: []query.OrderItem{
			{Attr: "package"}, {Attr: "item"}, {Attr: "date"},
		},
		Limit: limit,
	}
}

// Q12 = o_{date,package,item}(R2): needs one swap (date above package).
func Q12(limit int) *query.Query {
	return &query.Query{
		Relations: []string{"R2"},
		OrderBy: []query.OrderItem{
			{Attr: "date"}, {Attr: "package"}, {Attr: "item"},
		},
		Limit: limit,
	}
}

// Q13 = o_{customer,date,package}(R3): partial re-sort of a sorted
// relation (swap customer above date; package lists are reused).
func Q13(limit int) *query.Query {
	return &query.Query{
		Relations: []string{"R3"},
		OrderBy: []query.OrderItem{
			{Attr: "customer"}, {Attr: "date"}, {Attr: "package"},
		},
		Limit: limit,
	}
}

// AggQuery returns Q1–Q5 by index (1-based).
func AggQuery(i int) (*query.Query, error) {
	switch i {
	case 1:
		return Q1(), nil
	case 2:
		return Q2(), nil
	case 3:
		return Q3(), nil
	case 4:
		return Q4(), nil
	case 5:
		return Q5(), nil
	default:
		return nil, fmt.Errorf("workload: no AGG query Q%d", i)
	}
}

// FlatAggQuery returns Q1–Q5 rewritten against the base relations (for
// Experiment 2: no materialised view), i.e. with the R1 join inlined.
func FlatAggQuery(i int) (*query.Query, error) {
	q, err := AggQuery(i)
	if err != nil {
		return nil, err
	}
	q.Relations = []string{"Orders", "Packages", "Items"}
	q.Equalities = R1Equalities()
	return q, nil
}
