package engine

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/values"
)

// newTestMutable creates a mutable catalogue over the pizzeria database
// in a fresh temp directory.
func newTestMutable(t *testing.T) *MutableCatalog {
	t.Helper()
	m, err := CreateMutable(filepath.Join(t.TempDir(), "cat"), "pizzeria", pizzeriaDB())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// sortedTuples returns a relation's tuples in canonical order.
func sortedTuples(r *relation.Relation) []relation.Tuple {
	out := append([]relation.Tuple{}, r.Tuples...)
	sort.Slice(out, func(i, j int) bool { return relation.Compare(out[i], out[j]) < 0 })
	return out
}

// diffRelations asserts two relations hold the same tuple set.
func diffRelations(t *testing.T, name string, got, want *relation.Relation) {
	t.Helper()
	g, w := sortedTuples(got), sortedTuples(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d tuples, want %d", name, len(g), len(w))
	}
	for i := range g {
		if relation.Compare(g[i], w[i]) != 0 {
			t.Fatalf("%s: tuple %d is %v, want %v", name, i, g[i], w[i])
		}
	}
}

// diffViews asserts the mutable catalogue's view matches a reference
// database both as flat relations and as registered bases: each
// relation's stored factorisation must be the catalogue's own form, byte-identical
// (as a snapshot, with the same root) to catalog.Build of the relation.
func diffViews(t *testing.T, m *MutableCatalog, want DB) {
	t.Helper()
	view := m.View()
	if len(view) != len(want) {
		t.Fatalf("view has %d relations, want %d", len(view), len(want))
	}
	for name, wrel := range want {
		vrel, ok := view[name]
		if !ok {
			t.Fatalf("view is missing %s", name)
		}
		diffRelations(t, name, vrel, wrel)
		bs := baseSetOf(vrel)
		if bs == nil || bs.stored == nil {
			t.Fatalf("%s: the view relation is not registered with its factorisation", name)
		}
		fact := bs.stored
		ref, err := catalog.Build("ref", DB{name: vrel})
		if err != nil {
			t.Fatal(err)
		}
		wf := ref.Relations[0].Fact
		got, err := fact.Store.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		wb, err := wf.Store.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		if fact.Root != wf.Root || !bytes.Equal(got, wb) {
			t.Fatalf("%s: registered factorisation (root %d, %d snapshot bytes) differs from catalog.Build's (root %d, %d bytes)",
				name, fact.Root, len(got), wf.Root, len(wb))
		}
	}
}

func apply(t *testing.T, m *MutableCatalog, mut *query.Mutation) int64 {
	t.Helper()
	n, err := m.Apply(context.Background(), mut)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func ins(rel string, rows ...[]values.Value) *query.Mutation {
	return &query.Mutation{Op: query.OpInsert, Relation: rel, Rows: rows}
}

func TestMutableInsert(t *testing.T) {
	m := newTestMutable(t)
	n := apply(t, m, ins("Orders",
		[]values.Value{sv("Anna"), sv("Sunday"), sv("Margherita")},
		[]values.Value{sv("Anna"), sv("Sunday"), sv("Hawaii")},
	))
	if n != 2 {
		t.Fatalf("insert affected %d rows, want 2", n)
	}
	want := pizzeriaDB()
	want["Orders"] = relation.MustNew("Orders", want["Orders"].Attrs, append(want["Orders"].Tuples,
		relation.Tuple{sv("Anna"), sv("Sunday"), sv("Margherita")},
		relation.Tuple{sv("Anna"), sv("Sunday"), sv("Hawaii")},
	))
	diffViews(t, m, want)

	// Re-inserting the same rows is a no-op under set semantics.
	if n := apply(t, m, ins("Orders", []values.Value{sv("Anna"), sv("Sunday"), sv("Hawaii")})); n != 0 {
		t.Fatalf("duplicate insert affected %d rows, want 0", n)
	}
	diffViews(t, m, want)
}

func TestMutableDelete(t *testing.T) {
	m := newTestMutable(t)
	n := apply(t, m, &query.Mutation{Op: query.OpDelete, Relation: "Orders", Where: []query.Filter{
		{Attr: "customer", Op: fops.EQ, Const: sv("Mario")},
	}})
	if n != 3 {
		t.Fatalf("delete affected %d rows, want 3", n)
	}
	want := pizzeriaDB()
	var kept []relation.Tuple
	for _, tp := range want["Orders"].Tuples {
		if tp[0].Str() != "Mario" {
			kept = append(kept, tp)
		}
	}
	want["Orders"] = relation.MustNew("Orders", want["Orders"].Attrs, kept)
	diffViews(t, m, want)

	// Deleting again matches nothing.
	if n := apply(t, m, &query.Mutation{Op: query.OpDelete, Relation: "Orders", Where: []query.Filter{
		{Attr: "customer", Op: fops.EQ, Const: sv("Mario")},
	}}); n != 0 {
		t.Fatalf("repeat delete affected %d rows, want 0", n)
	}
}

func TestMutableDeleteAllAndReinsert(t *testing.T) {
	m := newTestMutable(t)
	if n := apply(t, m, &query.Mutation{Op: query.OpDelete, Relation: "Items"}); n != 4 {
		t.Fatalf("delete-all affected %d rows, want 4", n)
	}
	want := pizzeriaDB()
	want["Items"] = relation.MustNew("Items", want["Items"].Attrs, nil)
	diffViews(t, m, want)

	apply(t, m, ins("Items", []values.Value{sv("olives"), iv(2)}))
	want["Items"] = relation.MustNew("Items", want["Items"].Attrs, []relation.Tuple{{sv("olives"), iv(2)}})
	diffViews(t, m, want)
}

func TestMutableUpsert(t *testing.T) {
	m := newTestMutable(t)
	// "ham" exists at price 1: the upsert deletes one row, inserts one.
	n := apply(t, m, &query.Mutation{Op: query.OpUpsert, Relation: "Items", Rows: [][]values.Value{
		{sv("ham"), iv(3)},
		{sv("olives"), iv(2)}, // fresh key: plain insert
	}})
	if n != 3 {
		t.Fatalf("upsert affected %d rows, want 3 (1 deleted + 2 inserted)", n)
	}
	want := pizzeriaDB()
	var tuples []relation.Tuple
	for _, tp := range want["Items"].Tuples {
		if tp[0].Str() != "ham" {
			tuples = append(tuples, tp)
		}
	}
	tuples = append(tuples, relation.Tuple{sv("ham"), iv(3)}, relation.Tuple{sv("olives"), iv(2)})
	want["Items"] = relation.MustNew("Items", want["Items"].Attrs, tuples)
	diffViews(t, m, want)
}

func TestMutableErrors(t *testing.T) {
	m := newTestMutable(t)
	ctx := context.Background()
	if _, err := m.Apply(ctx, ins("Nope", []values.Value{iv(1)})); err == nil {
		t.Fatal("insert into unknown relation succeeded")
	}
	if _, err := m.Apply(ctx, ins("Items", []values.Value{iv(1)})); err == nil {
		t.Fatal("arity-mismatched insert succeeded")
	}
	if _, err := m.Apply(ctx, &query.Mutation{Op: query.OpDelete, Relation: "Items", Where: []query.Filter{
		{Attr: "nope", Const: iv(1)},
	}}); err == nil {
		t.Fatal("delete with unknown attribute succeeded")
	}
	if m.Generation() != 0 {
		t.Fatalf("failed mutations bumped the generation to %d", m.Generation())
	}
}

// TestMutableViewZeroTaxUnmutated: relations never written are served as
// the identical base pointers — the delta layer costs unmutated
// catalogues nothing — and an unchanged generation returns the cached
// view map itself.
func TestMutableViewZeroTaxUnmutated(t *testing.T) {
	m := newTestMutable(t)
	v0 := m.View()
	apply(t, m, ins("Orders", []values.Value{sv("Zoe"), sv("Monday"), sv("Hawaii")}))
	v1 := m.View()
	if v1["Pizzas"] != v0["Pizzas"] || v1["Items"] != v0["Items"] {
		t.Fatal("unmutated relations changed pointer identity after a write to Orders")
	}
	if v1["Orders"] == v0["Orders"] {
		t.Fatal("mutated relation kept its pointer")
	}
	if v2 := m.View(); !sameDB(v2, v1) {
		t.Fatal("stable generation returned a different view")
	}
}

func sameDB(a, b DB) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestMutableSQLRoundTrip drives the catalogue end to end through
// ParseStatement, the WAL and a query over the published view.
func TestMutableSQLRoundTrip(t *testing.T) {
	m := newTestMutable(t)
	for _, stmtSQL := range []string{
		`INSERT INTO Orders VALUES ('Anna', 'Sunday', 'Margherita')`,
		`DELETE FROM Orders WHERE customer = 'Pietro'`,
		`UPSERT INTO Items VALUES ('ham', 4)`,
	} {
		stmt, err := sql.ParseStatement(stmtSQL)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Apply(context.Background(), stmt.(*query.Mutation)); err != nil {
			t.Fatalf("%s: %v", stmtSQL, err)
		}
	}
	q := &query.Query{
		Relations:  []string{"Orders", "Pizzas", "Items"},
		Equalities: pizzeriaEqualities(),
		GroupBy:    []string{"customer"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "revenue"}},
		OrderBy:    []query.OrderItem{{Attr: "customer"}},
	}
	res, err := New().Run(q, m.View())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Relation()
	res.Close()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New().Run(q, cloneDB(m.View()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Relation()
	ref.Close()
	if err != nil {
		t.Fatal(err)
	}
	diffRelations(t, "revenue", got, want)
}

// cloneDB deep-copies a database into fresh relations with no
// registered factorisations, so queries against it take the
// from-scratch build path.
func cloneDB(db DB) DB {
	out := make(DB, len(db))
	for name, rel := range db {
		tuples := append([]relation.Tuple{}, rel.Tuples...)
		out[name] = relation.MustNew(rel.Name, rel.Attrs, tuples)
	}
	return out
}

// TestMutableDurability: close and reopen at every stage; the recovered
// catalogue must match the pre-close state exactly.
func TestMutableDurability(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cat")
	m, err := CreateMutable(dir, "pizzeria", pizzeriaDB())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	muts := []*query.Mutation{
		ins("Orders", []values.Value{sv("Anna"), sv("Sunday"), sv("Margherita")}),
		{Op: query.OpDelete, Relation: "Orders", Where: []query.Filter{{Attr: "customer", Const: sv("Mario")}}},
		{Op: query.OpUpsert, Relation: "Items", Rows: [][]values.Value{{sv("ham"), iv(9)}}},
		ins("Pizzas", []values.Value{sv("Quattro"), sv("artichokes")}),
	}
	for i, mut := range muts {
		if _, err := m.Apply(ctx, mut); err != nil {
			t.Fatal(err)
		}
		gen := m.Generation()
		snapshotDB := cloneDB(m.View())
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		m, err = OpenMutable(dir)
		if err != nil {
			t.Fatalf("reopen after mutation %d: %v", i, err)
		}
		if m.Generation() != gen {
			t.Fatalf("reopen after mutation %d: generation %d, want %d", i, m.Generation(), gen)
		}
		diffViews(t, m, snapshotDB)
	}
	m.Close()
}

func TestMutableCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cat")
	m, err := CreateMutable(dir, "pizzeria", pizzeriaDB())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	apply(t, m, ins("Orders", []values.Value{sv("Anna"), sv("Sunday"), sv("Margherita")}))
	apply(t, m, &query.Mutation{Op: query.OpDelete, Relation: "Items", Where: []query.Filter{{Attr: "item2", Const: sv("pineapple")}}})
	want := cloneDB(m.View())

	if err := m.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Compactions != 1 || st.WALEpoch != 2 || st.WALRecords != 0 {
		t.Fatalf("after compact: %+v", st)
	}
	if st.DeltaRows != 0 || st.TombstoneRows != 0 {
		t.Fatalf("compaction left deltas: %+v", st)
	}
	diffViews(t, m, want)

	// Writes after compaction land in the new epoch and survive reopen.
	apply(t, m, ins("Orders", []values.Value{sv("Ben"), sv("Monday"), sv("Hawaii")}))
	want["Orders"] = relation.MustNew("Orders", want["Orders"].Attrs,
		append(want["Orders"].Tuples, relation.Tuple{sv("Ben"), sv("Monday"), sv("Hawaii")}))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenMutable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	diffViews(t, m2, want)
}

// TestMutableCompactCancelled: a compaction cancelled mid-flight leaves
// the catalogue consistent (old snapshot authoritative, both WAL
// segments replayed on reopen) and still writable.
func TestMutableCompactCancelled(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cat")
	m, err := CreateMutable(dir, "pizzeria", pizzeriaDB())
	if err != nil {
		t.Fatal(err)
	}
	apply(t, m, ins("Orders", []values.Value{sv("Anna"), sv("Sunday"), sv("Margherita")}))

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the compactor checks ctx after sealing and aborts the rewrite
	if err := m.Compact(ctx); err == nil {
		t.Fatal("cancelled compaction succeeded")
	}
	if st := m.Stats(); st.Compactions != 0 {
		t.Fatalf("cancelled compaction counted: %+v", st)
	}
	// Still writable, and everything — including writes into the fresh
	// segment after the aborted seal — survives a reopen.
	apply(t, m, ins("Orders", []values.Value{sv("Ben"), sv("Monday"), sv("Hawaii")}))
	want := cloneDB(m.View())
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenMutable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	diffViews(t, m2, want)

	// A full compaction still works afterwards.
	if err := m2.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	diffViews(t, m2, want)
}

// TestMutableConcurrentWritersAndReaders is the race suite: writers
// stream inserts while readers drain parallel cursors at P ∈ {2, 8}
// from whatever view is current. Run with -race in CI.
func TestMutableConcurrentWritersAndReaders(t *testing.T) {
	m := newTestMutable(t)
	ctx := context.Background()
	q := &query.Query{
		Relations:  []string{"Orders", "Pizzas", "Items"},
		Equalities: pizzeriaEqualities(),
		GroupBy:    []string{"customer"},
		Aggregates: []query.Aggregate{{Fn: query.Sum, Arg: "price", As: "revenue"}},
		OrderBy:    []query.OrderItem{{Attr: "customer"}},
	}
	const writers, rounds, readers = 2, 25, 4
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				mut := ins("Orders", []values.Value{
					sv(fmt.Sprintf("writer%d-%d", w, i)), sv("Sunday"), sv("Hawaii"),
				})
				if _, err := m.Apply(ctx, mut); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eng := New()
			eng.Parallelism = []int{2, 8}[r%2]
			for i := 0; i < rounds; i++ {
				res, err := eng.RunContext(ctx, q, m.View())
				if err != nil {
					errc <- err
					return
				}
				rows, err := res.Rows(ctx)
				if err != nil {
					res.Close()
					errc <- err
					return
				}
				for rows.Next() {
				}
				err = rows.Err()
				rows.Close()
				res.Close()
				if err != nil {
					errc <- err
					return
				}
			}
		}(r)
	}
	// One compaction mid-flight for good measure.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := m.Compact(ctx); err != nil && err != ErrCompactionRunning {
			errc <- err
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// All acknowledged writes must be present.
	view := m.View()
	count := 0
	for _, tp := range view["Orders"].Tuples {
		var s string
		if tp[0].Kind() == values.String {
			s = tp[0].Str()
		}
		if len(s) > 6 && s[:6] == "writer" {
			count++
		}
	}
	if count != writers*rounds {
		t.Fatalf("view holds %d writer rows, want %d", count, writers*rounds)
	}
}

// TestWALCodecRoundTrip: every mutation shape must encode and decode to
// an equivalent statement.
func TestWALCodecRoundTrip(t *testing.T) {
	muts := []*query.Mutation{
		ins("Orders", []values.Value{sv("Anna"), iv(3), values.NewFloat(2.5)}),
		ins("R", []values.Value{values.NullValue()}, []values.Value{values.NewBool(true)}),
		{Op: query.OpDelete, Relation: "Orders"},
		{Op: query.OpDelete, Relation: "Orders", Where: []query.Filter{
			{Attr: "customer", Const: sv("Mario")},
			{Attr: "price", Op: fops.GT, Const: iv(10)},
		}},
		{Op: query.OpUpsert, Relation: "Items", Rows: [][]values.Value{{sv("ham"), iv(3)}}},
	}
	for _, m := range muts {
		b, err := encodeMutation(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeMutation(b)
		if err != nil {
			t.Fatalf("decode %s: %v", m, err)
		}
		if got.String() != m.String() {
			t.Fatalf("round trip: %q != %q", got, m)
		}
	}
}
