package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/server"
	"github.com/factordb/fdb/internal/sql"
	wl "github.com/factordb/fdb/internal/workload"
)

// r1Join is the paper's view R1 = Orders ⋈ Packages ⋈ Items spelled
// over the base relations.
const r1Join = ` FROM Orders, Packages, Items WHERE package = package2 AND item = item2`

// dataset generates the paper's scaled base relations from the seed and
// thins Orders to 48·s³ tuples, chosen by the seed and kept in generated
// order. The generator draws |Orders| as a sum of binomials around 64·s³:
// between seeds it differs by 10% (quartile to quartile) at scale 2 and by
// 3% at scale 6, and every latency follows it. With the cardinality
// fixed, |R1| = |R2| = 4·s·|Orders| is fixed too, and seeds differ in
// values, not in size. (One seed in several hundred draws fewer than
// 48·s³ orders at scale 2; it keeps what it drew.)
func dataset(r *run) *wl.Dataset {
	s := r.scale()
	d := wl.Generate(wl.Config{Scale: s, Seed: r.opts.seed})
	all := d.Orders.Tuples
	if keep := 48 * s * s * s; keep < len(all) {
		picked := rand.New(rand.NewSource(r.opts.seed)).Perm(len(all))[:keep]
		sort.Ints(picked)
		thinned := make([]relation.Tuple, keep)
		for i, j := range picked {
			thinned[i] = all[j]
		}
		d.Orders = &relation.Relation{Name: d.Orders.Name, Attrs: d.Orders.Attrs, Tuples: thinned}
	}
	return d
}

// generateBase serves the base relations themselves.
func generateBase(r *run) error {
	r.flat = rdb.DB(dataset(r).DB())
	return nil
}

// setupCatalogue is the read-only serving path an operator would use:
// build the catalogue snapshot, write it, load it back memory-mapped,
// and serve it with default server settings.
func setupCatalogue(r *run, dir string) (*env, error) {
	cat, err := catalog.Build("bench", r.flat)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "bench.fdbcat")
	if err := catalog.WriteFile(path, cat); err != nil {
		return nil, err
	}
	loaded, err := fdb.LoadCatalogFile(path, true)
	if err != nil {
		return nil, err
	}
	e := &env{db: func() engine.DB { return loaded.DB }}
	e.stop = append(e.stop, func() { _ = loaded.Close() })
	srv, err := server.New(server.Config{Databases: map[string]fdb.Database{"bench": loaded.DB}})
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

// read makes a streamed read statement that is its own class.
func read(name, text string, ordered bool) *stmt {
	return &stmt{name: name, class: name, kind: kindStream, sql: text, ordered: ordered}
}

// Select lists shared by several statements.
const (
	byCustomer    = `SELECT customer, SUM(price) AS revenue` + r1Join + ` GROUP BY customer`
	byDatePackage = `SELECT date, package, SUM(price) AS total` + r1Join + ` GROUP BY date, package`
	byPackage     = `SELECT package, SUM(price) AS total` + r1Join + ` GROUP BY package`
	r3ByCustomer  = `SELECT customer, date, package FROM Orders ORDER BY customer, date, package`
	r3Desc        = `SELECT customer, date, package FROM Orders ORDER BY customer DESC, date DESC, package DESC`
)

// aggStatements are the paper's Q2–Q9: aggregation, and aggregation
// followed by ordering, over R1. Q7 is the top-10 by revenue; the
// customer tie-break makes its ORDER BY total so the page is checkable.
func aggStatements(*run) ([]*stmt, error) {
	return []*stmt{
		read("a2", byCustomer, false),
		read("a3", byDatePackage, false),
		read("a4", byPackage, false),
		read("a5", `SELECT SUM(price) AS total`+r1Join, false),
		read("a6", byCustomer+` ORDER BY customer`, true),
		read("a7", byCustomer+` ORDER BY revenue DESC, customer LIMIT 10`, true),
		read("a8", byDatePackage+` ORDER BY date, package`, true),
		read("a9", byDatePackage+` ORDER BY package, date`, true),
	}, nil
}

// r2Order spells the paper's ORD queries Q10–Q12 over R1 with the
// customer appended as tie-break, which makes every order total.
func r2Order(a, b, c string) string {
	return fmt.Sprintf(`SELECT %[1]s, %[2]s, %[3]s, customer, price%[4]s ORDER BY %[1]s, %[2]s, %[3]s, customer`, a, b, c, r1Join)
}

// ordStatements are Q10–Q13 with LIMIT 10 at OFFSET 0 and at a deep
// offset — nine tenths into the result, placed from the oracle's row
// count — plus Q13 descending.
func ordStatements(r *run) ([]*stmt, error) {
	bases := []struct{ name, text string }{
		{"o10", r2Order("package", "date", "item")},
		{"o11", r2Order("package", "item", "date")},
		{"o12", r2Order("date", "package", "item")},
		{"o13", r3ByCustomer},
	}
	var out []*stmt
	for _, b := range bases {
		n, err := r.orc.count(b.text)
		if err != nil {
			return nil, err
		}
		out = append(out,
			read(b.name, b.text+` LIMIT 10`, true),
			read(b.name+"d", fmt.Sprintf(`%s LIMIT 10 OFFSET %d`, b.text, n*9/10), true))
	}
	return append(out, read("o13desc", r3Desc+` LIMIT 10`, true)), nil
}

// streamStatements return whole results: Q1, Q12 projected to its sort
// key and Q13 as NDJSON, and Q13 once more over the buffered transport.
func streamStatements(*run) ([]*stmt, error) {
	s13buf := read("s13buf", r3ByCustomer, true)
	s13buf.kind = kindBuffered
	return []*stmt{
		read("s1", `SELECT package, date, customer, SUM(price) AS total`+r1Join+` GROUP BY package, date, customer`, false),
		read("s12", `SELECT date, package, item`+r1Join+` ORDER BY date, package, item`, true),
		read("s13", r3ByCustomer, true),
		s13buf,
	}, nil
}

// generateR3 serves the paper's view R3 alone: Orders sorted by (date,
// customer, package).
func generateR3(r *run) error {
	r3, err := dataset(r).R3()
	r.flat = rdb.DB{"R3": r3}
	return err
}

// fanoutStatements are the statements the engine runs with segment
// workers, and one it does not. The engine fans a loop out when its root
// union holds thousands of values and a hundred thousand tuples (the
// MinParallel* floors of internal/engine, fops and frep); of the paper's
// data only the dates of R3 get there, and only from scale 14 up, which
// no other workload can afford. The scan and the deep page run the
// parallel enumeration cursors, the group-by the parallel operators; the
// group-by on customer (1,600 values) stays under the floors on the same
// relation, the other side of the engine's choice.
func fanoutStatements(r *run) ([]*stmt, error) {
	const byDate = `SELECT date, customer, package FROM R3 ORDER BY date, customer, package`
	n, err := r.orc.count(byDate)
	if err != nil {
		return nil, err
	}
	return []*stmt{
		read("f_scan", byDate, true),
		read("f_page", fmt.Sprintf(`%s LIMIT 10 OFFSET %d`, byDate, n*9/10), true),
		read("f_bydate", `SELECT date, COUNT(*) AS n FROM R3 GROUP BY date ORDER BY date`, true),
		read("f_bycustomer", `SELECT customer, COUNT(*) AS n FROM R3 GROUP BY customer ORDER BY customer`, true),
	}, nil
}

// fanoutFinish fails the run when, with threads to fan out over and at
// the workload's own scale, the measured loop spawned no enumeration or
// no operator workers: the workload would then measure what ord and agg
// already do.
func fanoutFinish(r *run) error {
	if par := r.measured.par; runtime.GOMAXPROCS(0) > 1 && r.opts.scale == 0 && (par.EnumWorkers == 0 || par.OpWorkers == 0) {
		r.col.fail("fanout", fmt.Errorf("%d enumeration and %d operator workers in the measured loop; both must be above 0", par.EnumWorkers, par.OpWorkers))
	}
	return nil
}

// planColdCorpus is the size of the plan_cold statement corpus: four
// times the server's default plan-cache capacity, so a round-robin pass
// never finds a statement it has seen still cached.
const planColdCorpus = 1024

// planColdShapes are the paper's 13 query shapes over the base
// relations; each takes a constant filter, and the ordered ones a LIMIT.
var planColdShapes = []struct {
	sel, from, tail string
	ordered         bool
	attrs           []string // attributes a filter may constrain
}{
	{`SELECT package, date, customer, SUM(price) AS total`, r1Join, ` GROUP BY package, date, customer`, false, r1Filter},
	{`SELECT customer, SUM(price) AS revenue`, r1Join, ` GROUP BY customer`, false, r1Filter},
	{`SELECT date, package, SUM(price) AS total`, r1Join, ` GROUP BY date, package`, false, r1Filter},
	{`SELECT package, SUM(price) AS total`, r1Join, ` GROUP BY package`, false, r1Filter},
	{`SELECT SUM(price) AS total`, r1Join, ``, false, r1Filter},
	{`SELECT customer, SUM(price) AS revenue`, r1Join, ` GROUP BY customer ORDER BY customer`, true, r1Filter},
	{`SELECT customer, SUM(price) AS revenue`, r1Join, ` GROUP BY customer ORDER BY revenue DESC, customer`, true, r1Filter},
	{`SELECT date, package, SUM(price) AS total`, r1Join, ` GROUP BY date, package ORDER BY date, package`, true, r1Filter},
	{`SELECT date, package, SUM(price) AS total`, r1Join, ` GROUP BY date, package ORDER BY package, date`, true, r1Filter},
	{`SELECT package, date, item, customer, price`, r1Join, ` ORDER BY package, date, item, customer`, true, r1Filter},
	{`SELECT package, item, date, customer, price`, r1Join, ` ORDER BY package, item, date, customer`, true, r1Filter},
	{`SELECT date, package, item, customer, price`, r1Join, ` ORDER BY date, package, item, customer`, true, r1Filter},
	{`SELECT customer, date, package`, ` FROM Orders`, ` ORDER BY customer, date, package`, true, []string{"date", "customer"}},
}

var r1Filter = []string{"price", "date", "customer"}

// planColdStatements generates the corpus from the seed: shape i mod 13,
// a random constant filter drawn from the attribute's generated domain,
// and for ordered shapes a random LIMIT — always one, so that no
// response is large enough to cost more than the planning the workload
// exists for, and rows_per_s does not hang on how many unlimited scans a
// seed happens to draw. Texts are pairwise distinct under sql.Normalize
// — the server's cache key — or generation fails.
func planColdStatements(r *run) ([]*stmt, error) {
	rng := rand.New(rand.NewSource(r.opts.seed))
	s := r.scale()
	domain := map[string]int{"price": 20, "date": 800 * s, "customer": 100 * s}
	ops := []string{"<", "<=", ">", ">="}
	limits := []int{10, 25, 50, 100}
	seen := map[string]bool{}
	var out []*stmt
	for tries := 0; len(out) < planColdCorpus; tries++ {
		if tries > 100*planColdCorpus {
			return nil, fmt.Errorf("plan_cold: only %d distinct statements after %d draws", len(out), tries)
		}
		shape := len(out) % len(planColdShapes)
		sh := planColdShapes[shape]
		attr := sh.attrs[rng.Intn(len(sh.attrs))]
		cond := fmt.Sprintf("%s %s %d", attr, ops[rng.Intn(len(ops))], 1+rng.Intn(domain[attr]))
		glue := " AND "
		if shape == len(planColdShapes)-1 {
			glue = " WHERE " // the only shape without a join condition
		}
		text := sh.sel + sh.from + glue + cond + sh.tail
		if sh.ordered {
			text += fmt.Sprintf(" LIMIT %d", limits[rng.Intn(len(limits))])
		}
		key := sql.Normalize(text)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, &stmt{
			name:    fmt.Sprintf("p%d_%d", shape+1, len(out)),
			class:   fmt.Sprintf("p%d", shape+1),
			kind:    kindStream,
			sql:     text,
			ordered: sh.ordered,
		})
	}
	return out, nil
}
