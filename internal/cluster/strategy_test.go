package cluster

import (
	"testing"

	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/values"
)

// testManifest describes a catalogue with one split relation R
// (partitioned on its first attribute a) and one replicated relation S.
func testManifest() *catalog.ShardManifest {
	return &catalog.ShardManifest{
		Catalog: "shop",
		Shards:  2,
		Relations: []catalog.ShardRelation{
			{Name: "R", Attrs: []string{"a", "b", "c"}, Partition: "a", Rows: []int{3, 2}},
			{Name: "S", Attrs: []string{"x"}, Rows: []int{4, 4}},
		},
	}
}

func mustPlan(t *testing.T, sqlText string) *strategy {
	t.Helper()
	q, err := sql.Parse(sqlText)
	if err != nil {
		t.Fatalf("parse %q: %v", sqlText, err)
	}
	st, err := planStrategy(q, testManifest())
	if err != nil {
		t.Fatalf("plan %q: %v", sqlText, err)
	}
	return st
}

func TestPlanLocalFallbacks(t *testing.T) {
	cases := []string{
		"SELECT * FROM R, S WHERE a = x", // join
		"SELECT * FROM S",                // replicated-only relation
		"SELECT * FROM Unknown",          // not in the manifest
		"SELECT b, c FROM R ORDER BY b",  // projection drops partition attr
		"SELECT count(*) AS n FROM S",    // aggregate over replicated relation
		"SELECT a, c FROM R",             // projection not a tree-order prefix (skips b)
		"SELECT a, b FROM R ORDER BY c",  // ORDER BY attr outside the projection
	}
	for _, sqlText := range cases {
		if st := mustPlan(t, sqlText); st.mode != modeLocal {
			t.Errorf("%q: mode %s, want local", sqlText, st.mode)
		}
	}
	// nil manifest: everything is local.
	q, err := sql.Parse("SELECT * FROM R")
	if err != nil {
		t.Fatal(err)
	}
	st, err := planStrategy(q, nil)
	if err != nil || st.mode != modeLocal {
		t.Fatalf("nil manifest: mode %v err %v", st.mode, err)
	}
}

func TestPlanScan(t *testing.T) {
	st := mustPlan(t, "SELECT * FROM R ORDER BY b DESC LIMIT 5 OFFSET 2")
	if st.mode != modeStream {
		t.Fatalf("mode %s, want stream", st.mode)
	}
	if len(st.columns) != 0 {
		t.Fatalf("SELECT * should adopt the shard header, got columns %v", st.columns)
	}
	// The engine restructures the scan so the output columns arrive in
	// tree order (b, a, c); the merge compares them left to right with
	// the ORDER BY direction on the hoisted prefix.
	want := []keyCol{{col: 0, desc: true}, {col: 1}, {col: 2}}
	if len(st.cmp) != len(want) {
		t.Fatalf("cmp %v, want %v", st.cmp, want)
	}
	for i := range want {
		if st.cmp[i] != want[i] {
			t.Fatalf("cmp[%d] = %+v, want %+v", i, st.cmp[i], want[i])
		}
	}
	// LIMIT 5 OFFSET 2 pushes LIMIT 7 to shards; OFFSET stays here.
	if st.pushdown != 7 || st.limit != 5 || st.offset != 2 {
		t.Fatalf("pushdown %d limit %d offset %d", st.pushdown, st.limit, st.offset)
	}
	if st.shardQ.Offset != 0 || st.shardQ.Limit != 7 {
		t.Fatalf("shard query offset %d limit %d", st.shardQ.Offset, st.shardQ.Limit)
	}
	if _, err := sql.Parse(st.shardSQL); err != nil {
		t.Fatalf("shard SQL %q does not re-parse: %v", st.shardSQL, err)
	}

	// A projection that is a tree-order prefix and keeps the partition
	// attribute distributes; the comparator walks the prefix in tree
	// order at the projected positions.
	st = mustPlan(t, "SELECT a, b FROM R")
	if st.mode != modeStream {
		t.Fatalf("prefix projection: mode %s", st.mode)
	}
	if got := []keyCol{{col: 0}, {col: 1}}; st.cmp[0] != got[0] || st.cmp[1] != got[1] {
		t.Fatalf("cmp %v", st.cmp)
	}
	// ORDER BY restructures the tree, so (b, a) is the prefix here.
	st = mustPlan(t, "SELECT a, b FROM R ORDER BY b DESC")
	if st.mode != modeStream {
		t.Fatalf("restructured prefix projection: mode %s", st.mode)
	}
	if got := []keyCol{{col: 1, desc: true}, {col: 0}}; st.cmp[0] != got[0] || st.cmp[1] != got[1] {
		t.Fatalf("cmp %v", st.cmp)
	}
}

func TestPlanGroupStream(t *testing.T) {
	st := mustPlan(t, "SELECT b, sum(c) AS total FROM R GROUP BY b ORDER BY b LIMIT 3")
	if st.mode != modeGroupStream {
		t.Fatalf("mode %s, want group-stream", st.mode)
	}
	if st.nGroup != 1 || len(st.low.Fields()) != 1 || st.low.Fields()[0] != (ftree.AggField{Fn: ftree.Sum, Arg: "c"}) {
		t.Fatalf("nGroup %d fields %v", st.nGroup, st.low.Fields())
	}
	if st.pushdown != 3 {
		t.Fatalf("pushdown %d, want 3", st.pushdown)
	}
	// HAVING disables the limit pushdown and lands coordinator-side.
	st = mustPlan(t, "SELECT b, sum(c) AS total FROM R GROUP BY b HAVING total > 10 ORDER BY b LIMIT 3")
	if st.pushdown != 0 {
		t.Fatalf("pushdown with HAVING = %d, want 0", st.pushdown)
	}
	if len(st.having) != 1 || st.havingCol[0] != 1 || st.having[0].Op != fops.GT {
		t.Fatalf("having %+v cols %v", st.having, st.havingCol)
	}
	if values.Compare(st.having[0].Const, values.NewInt(10)) != 0 {
		t.Fatalf("having const %v", st.having[0].Const)
	}
	if len(st.shardQ.Having) != 0 {
		t.Fatalf("shard query kept HAVING: %v", st.shardQ.Having)
	}
}

func TestPlanAvgRewrite(t *testing.T) {
	st := mustPlan(t, "SELECT b, avg(c) AS ac, count(*) AS n FROM R GROUP BY b ORDER BY b")
	if st.mode != modeGroupStream {
		t.Fatalf("mode %s", st.mode)
	}
	// Shards ship the lowered fields sum(c) and count(*): AVG's count
	// and the COUNT(*) output share one column.
	aggs := st.shardQ.Aggregates
	if len(aggs) != 2 {
		t.Fatalf("shard aggregates %v", aggs)
	}
	if aggs[0].Fn != query.Sum || aggs[0].Arg != "c" || aggs[1].Fn != query.Count || aggs[1].Arg != "" {
		t.Fatalf("shard aggregates %+v", aggs)
	}
	// The coordinator finalises from the merged fields: avg = 10/4, n = 4.
	finals := make([]values.Value, 2)
	st.low.FinalInto(finals, []values.Value{values.NewInt(10), values.NewInt(4)})
	if values.Compare(finals[0], values.NewFloat(2.5)) != 0 || values.Compare(finals[1], values.NewInt(4)) != 0 {
		t.Fatalf("finals %v", finals)
	}
	// The rewritten statement must survive the wire: render and re-parse.
	q2, err := sql.Parse(st.shardSQL)
	if err != nil {
		t.Fatalf("shard SQL %q: %v", st.shardSQL, err)
	}
	if len(q2.Aggregates) != 2 || q2.Aggregates[1].As != aggs[1].As {
		t.Fatalf("round-trip lost the rewrite: %q -> %+v", st.shardSQL, q2.Aggregates)
	}
}

func TestPlanBuffered(t *testing.T) {
	st := mustPlan(t, "SELECT b, sum(c) AS total FROM R GROUP BY b ORDER BY total DESC, b LIMIT 4 OFFSET 1")
	if st.mode != modeBuffered {
		t.Fatalf("mode %s, want buffered", st.mode)
	}
	// Shards stream in explicit base order (the group attrs ascending);
	// the original ORDER BY waits for the coordinator sort.
	if len(st.shardQ.OrderBy) != 1 || st.shardQ.OrderBy[0] != (query.OrderItem{Attr: "b"}) {
		t.Fatalf("shard ORDER BY %v", st.shardQ.OrderBy)
	}
	if len(st.orderBy) != 2 || st.orderBy[0] != (keyCol{col: 1, desc: true}) || st.orderBy[1] != (keyCol{col: 0}) {
		t.Fatalf("coordinator ORDER BY %v", st.orderBy)
	}
	if st.pushdown != 0 {
		t.Fatalf("buffered mode must not push LIMIT down, got %d", st.pushdown)
	}
	if st.limit != 4 || st.offset != 1 {
		t.Fatalf("limit %d offset %d", st.limit, st.offset)
	}
}

func TestResumeSQL(t *testing.T) {
	st := mustPlan(t, "SELECT * FROM R ORDER BY a LIMIT 10")
	if got := st.resumeSQL(0); got != st.shardSQL {
		t.Fatalf("resume at 0 rewrote the statement: %q", got)
	}
	rq, err := sql.Parse(st.resumeSQL(4))
	if err != nil {
		t.Fatal(err)
	}
	if rq.Offset != 4 || rq.Limit != 6 {
		t.Fatalf("resume at 4: OFFSET %d LIMIT %d, want 4 and 6", rq.Offset, rq.Limit)
	}
	// Unlimited shard query: resume adjusts only the offset.
	st = mustPlan(t, "SELECT * FROM R ORDER BY a")
	rq, err = sql.Parse(st.resumeSQL(7))
	if err != nil {
		t.Fatal(err)
	}
	if rq.Offset != 7 || rq.Limit != 0 {
		t.Fatalf("resume: OFFSET %d LIMIT %d, want 7 and 0", rq.Offset, rq.Limit)
	}
}
