package main

import (
	"math/rand"
	"testing"

	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/sql"
)

// The plan_cold corpus is pairwise distinct under the server's cache
// key, every text parses, paged statements have an ORDER BY, and the
// corpus is a function of the seed.
func TestPlanColdCorpus(t *testing.T) {
	gen := func(seed int64) []*stmt {
		r := &run{w: find("plan_cold"), opts: options{seed: seed}}
		stmts, err := planColdStatements(r)
		if err != nil {
			t.Fatal(err)
		}
		return stmts
	}
	a := gen(1)
	if len(a) != planColdCorpus {
		t.Fatalf("corpus has %d statements", len(a))
	}
	keys := map[string]bool{}
	classes := map[string]int{}
	for _, st := range a {
		keys[sql.Normalize(st.sql)] = true
		classes[st.class]++
		q, err := sql.Parse(st.sql)
		if err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		if q.Limit > 0 && !st.ordered {
			t.Errorf("%s: LIMIT on a statement whose order is not total", st.sql)
		}
	}
	if len(keys) != planColdCorpus {
		t.Errorf("%d distinct cache keys, want %d", len(keys), planColdCorpus)
	}
	if len(classes) != len(planColdShapes) {
		t.Errorf("%d shapes, want %d", len(classes), len(planColdShapes))
	}
	b, c := gen(1), gen(2)
	same := 0
	for i := range a {
		if a[i].sql != b[i].sql {
			t.Fatalf("seed 1 generated two corpora: %q vs %q", a[i].sql, b[i].sql)
		}
		if a[i].sql == c[i].sql {
			same++
		}
	}
	if same > planColdCorpus/10 {
		t.Errorf("seeds 1 and 2 share %d statements", same)
	}
}

// The write_mix schedule keeps the live row count constant once its
// window has filled, compacts every compactEvery cycles, and its
// expected rows-affected counts follow from the model.
func TestWriteMixSchedule(t *testing.T) {
	byName := map[string]*stmt{}
	stmts, err := mixStatements(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stmts {
		byName[st.name] = st
	}
	base := []relation.Tuple{intTuple(1, 2, 3), intTuple(4, 5, 6)}
	m := &mixModel{rng: rand.New(rand.NewSource(9)), base: base}
	counts := map[string]int{}
	for m.cycle < 3*compactEvery {
		o := m.next(byName)
		counts[o.st.name]++
		if o.endsPeriod != (o.st.name == "compact") {
			t.Fatalf("cycle %d: %s ends a period: %v", m.cycle, o.st.name, o.endsPeriod)
		}
		if o.endsCycle != (o.st.name == "o13desc") {
			t.Fatalf("cycle %d: %s ends a cycle: %v", m.cycle, o.st.name, o.endsCycle)
		}
		switch o.st.name {
		case "insert", "delete":
			if o.want.rows != insertRows {
				t.Fatalf("cycle %d: %s expects %d rows", m.cycle, o.st.name, o.want.rows)
			}
		case "upsert":
			if want := 2 * upsertRows; m.cycle > 0 && o.want.rows != want {
				t.Fatalf("cycle %d: upsert expects %d rows, want %d", m.cycle, o.want.rows, want)
			}
		case "o13desc":
			if o.want.rows != 10 {
				t.Fatalf("cycle %d: o13desc expects %d rows", m.cycle, o.want.rows)
			}
			if _, total := m.live(); m.cycle >= windowBatches && total != len(base)+windowBatches*insertRows+upsertRows {
				t.Fatalf("cycle %d: %d live rows", m.cycle, total)
			}
		}
	}
	if m.broken != nil {
		t.Fatal(m.broken)
	}
	cycles := 3 * compactEvery
	if counts["insert"] != cycles || counts["delete"] != cycles-windowBatches || counts["compact"] != 3 {
		t.Errorf("operation counts over %d cycles: %v", cycles, counts)
	}
}
