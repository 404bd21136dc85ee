package cluster

// The golden suite: a scatter-gather cluster over real HTTP listeners
// must answer every workload query byte-identically to a serial server
// over the undivided catalogue — including under mid-stream replica
// failure, dead replicas and hedged reads. Only the trailer's elapsed
// time may differ.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"context"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/server"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/wire"
	"github.com/factordb/fdb/internal/workload"
)

// testData builds the workload catalogue: the views R1, R2, R3 plus the
// base relations (so join queries exercise the local fallback).
func testData(t *testing.T) (fdb.Database, *catalog.Catalog) {
	t.Helper()
	ds := workload.Generate(workload.Config{Scale: 1})
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
	db := fdb.Database{
		"R1": r1, "R2": r2, "R3": r3,
		"Orders": ds.Orders, "Packages": ds.Packages, "Items": ds.Items,
		"RN": nullRelation(t),
	}
	cat, err := catalog.Build("shop", db)
	if err != nil {
		t.Fatal(err)
	}
	return db, cat
}

// nullRelation is RN(g, v): eight groups spread over every shard, where
// group 3 holds only NULLs and groups 2 and 6 mix NULLs with numbers.
func nullRelation(t *testing.T) *relation.Relation {
	t.Helper()
	var ts []relation.Tuple
	for g := int64(1); g <= 8; g++ {
		for k := int64(0); k < 3; k++ {
			v := values.NewInt(g*10 + k)
			if g == 3 || (k == 1 && (g == 2 || g == 6)) {
				v = values.NullValue()
			}
			ts = append(ts, relation.Tuple{values.NewInt(g), v})
		}
	}
	rel, err := relation.New("RN", []string{"g", "v"}, ts)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func newServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testCluster is a full serving topology: a serial reference server, a
// second identical server as the coordinator's local fallback, and
// shards×replicas bare workers behind real listeners.
type testCluster struct {
	serial  *server.Server
	co      *Coordinator
	workers []*server.Server
}

// newTestCluster builds the topology, ships the shards and returns the
// cluster. proxy, when non-nil, wraps each shard's first replica URL
// (after shipping, so installs bypass it) — used to interpose tearing
// or slow replicas. hedge is the coordinator's hedge delay, 0 for no
// hedging; retry passes back off from 1ms.
func newTestCluster(t *testing.T, shards, replicas int, hedge time.Duration, proxy func(shard int, base string) string) *testCluster {
	t.Helper()
	db, cat := testData(t)
	return newClusterOver(t, db, cat, shards, replicas, hedge, proxy)
}

// newClusterOver is newTestCluster over the given database and its
// catalogue.
func newClusterOver(t *testing.T, db fdb.Database, cat *catalog.Catalog, shards, replicas int, hedge time.Duration, proxy func(shard int, base string) string) *testCluster {
	t.Helper()
	tc := &testCluster{
		serial: newServer(t, server.Config{Databases: map[string]fdb.Database{"shop": db}, DefaultDB: "shop"}),
	}
	local := newServer(t, server.Config{Databases: map[string]fdb.Database{"shop": db}, DefaultDB: "shop"})

	groups := make([][]string, shards)
	for i := 0; i < shards; i++ {
		for j := 0; j < replicas; j++ {
			w := newServer(t, server.Config{ShardDir: t.TempDir()})
			ts := httptest.NewServer(w)
			t.Cleanup(ts.Close)
			tc.workers = append(tc.workers, w)
			groups[i] = append(groups[i], ts.URL)
		}
	}
	man, err := Ship(context.Background(), nil, groups, cat)
	if err != nil {
		t.Fatal(err)
	}
	if proxy != nil {
		for i := range groups {
			groups[i][0] = proxy(i, groups[i][0])
		}
	}
	tc.co, err = New(Config{
		Groups:   groups,
		Manifest: man,
		Local:    local,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.co.hedgeDelay, tc.co.backoff = hedge, time.Millisecond
	return tc
}

// goldenQueries is the workload Q1–Q13 plus LIMIT/OFFSET, DESC, HAVING,
// AVG and fallback variants, rendered to SQL.
func goldenQueries() map[string]string {
	qs := map[string]*query.Query{
		"Q1": workload.Q1(), "Q2": workload.Q2(), "Q3": workload.Q3(),
		"Q4": workload.Q4(), "Q5": workload.Q5(), "Q6": workload.Q6(),
		"Q7": workload.Q7(), "Q8": workload.Q8(), "Q9": workload.Q9(),
		"Q10": workload.Q10(0), "Q10_limit": workload.Q10(10),
		"Q11": workload.Q11(0), "Q11_limit": workload.Q11(10),
		"Q12": workload.Q12(0), "Q12_limit": workload.Q12(10),
		"Q13": workload.Q13(0), "Q13_limit": workload.Q13(10),
	}
	with := func(name string, q *query.Query, mut func(*query.Query)) {
		mut(q)
		qs[name] = q
	}
	with("Q6_page", workload.Q6(), func(q *query.Query) { q.Limit = 4; q.Offset = 1 })
	with("Q7_page", workload.Q7(), func(q *query.Query) { q.Limit = 5; q.Offset = 3 })
	with("Q7_desc", workload.Q7(), func(q *query.Query) { q.OrderBy[0].Desc = true })
	with("Q8_desc", workload.Q8(), func(q *query.Query) { q.OrderBy[0].Desc = true })
	with("Q12_page", workload.Q12(10), func(q *query.Query) { q.Offset = 5 })
	with("Q2_having", workload.Q2(), func(q *query.Query) {
		q.Having = []query.Filter{{Attr: "revenue", Op: fops.GT, Const: values.NewInt(150)}}
		q.OrderBy = []query.OrderItem{{Attr: "customer"}}
	})
	// ORDER BY mixing an aggregate alias with a group attribute: the
	// buffered mode's base-order contract.
	with("Q3_mixed", workload.Q3(), func(q *query.Query) {
		q.OrderBy = []query.OrderItem{{Attr: "total", Desc: true}, {Attr: "date"}}
		q.Limit = 12
	})
	qs["avg_stream"] = &query.Query{
		Relations:  []string{"R1"},
		GroupBy:    []string{"customer"},
		Aggregates: []query.Aggregate{{Fn: query.Avg, Arg: "price", As: "ap"}},
		OrderBy:    []query.OrderItem{{Attr: "customer"}},
	}
	qs["avg_buffered"] = &query.Query{
		Relations:  []string{"R1"},
		GroupBy:    []string{"customer"},
		Aggregates: []query.Aggregate{{Fn: query.Avg, Arg: "price", As: "ap"}},
		OrderBy:    []query.OrderItem{{Attr: "ap", Desc: true}},
		Limit:      7,
	}
	qs["minmax"] = &query.Query{
		Relations: []string{"R1"},
		GroupBy:   []string{"package"},
		Aggregates: []query.Aggregate{
			{Fn: query.Min, Arg: "price", As: "lo"},
			{Fn: query.Max, Arg: "price", As: "hi"},
			{Fn: query.Count, As: "n"},
		},
		OrderBy: []query.OrderItem{{Attr: "package"}},
	}
	// Aggregates over no tuples: COUNT is 0 and the rest NULL, globally
	// (one row) and grouped (no rows); the filter rejects every price.
	none := []query.Filter{{Attr: "price", Op: fops.GT, Const: values.NewInt(1 << 40)}}
	qs["avg_empty"] = &query.Query{
		Relations:  []string{"R1"},
		Filters:    none,
		Aggregates: []query.Aggregate{{Fn: query.Avg, Arg: "price", As: "ap"}},
	}
	qs["all_empty"] = &query.Query{
		Relations:  []string{"R1"},
		Filters:    none,
		Aggregates: allFns("price"),
	}
	qs["all_empty_grouped"] = &query.Query{
		Relations:  []string{"R1"},
		Filters:    none,
		GroupBy:    []string{"customer"},
		Aggregates: allFns("price"),
		OrderBy:    []query.OrderItem{{Attr: "customer"}},
	}
	// NULL-only and mixed groups, streamed and ordered by an aggregate.
	qs["null_groups"] = &query.Query{
		Relations:  []string{"RN"},
		GroupBy:    []string{"g"},
		Aggregates: allFns("v"),
		OrderBy:    []query.OrderItem{{Attr: "g"}},
	}
	qs["null_groups_by_avg"] = &query.Query{
		Relations:  []string{"RN"},
		GroupBy:    []string{"g"},
		Aggregates: allFns("v"),
		OrderBy:    []query.OrderItem{{Attr: "a", Desc: true}},
	}
	// ORDER BY one aggregate of two: groups that tie on it (many share a
	// minimum price, over differing counts) break the tie by the group
	// base, never by the other aggregate.
	qs["two_aggs_by_one"] = &query.Query{
		Relations:  []string{"R1"},
		GroupBy:    []string{"customer"},
		Aggregates: []query.Aggregate{{Fn: query.Min, Arg: "price", As: "lo"}, {Fn: query.Count, As: "n"}},
		OrderBy:    []query.OrderItem{{Attr: "lo"}},
	}
	qs["count_star"] = &query.Query{
		Relations:  []string{"R1"},
		Aggregates: []query.Aggregate{{Fn: query.Count, As: "n"}},
	}
	qs["scan_all"] = &query.Query{Relations: []string{"R1"}}
	qs["scan_filter"] = &query.Query{
		Relations: []string{"R2"},
		Filters:   []query.Filter{{Attr: "price", Op: fops.GT, Const: values.NewInt(10)}},
		OrderBy:   []query.OrderItem{{Attr: "package"}, {Attr: "date"}, {Attr: "item"}},
	}
	// Local fallbacks, golden all the same: a projection dropping the
	// partition attribute, and a join over the base relations.
	qs["proj_fallback"] = &query.Query{
		Relations:  []string{"R2"},
		Projection: []string{"date", "package"},
		OrderBy:    []query.OrderItem{{Attr: "date"}, {Attr: "package"}},
	}
	if j, err := workload.FlatAggQuery(2); err == nil {
		j.OrderBy = []query.OrderItem{{Attr: "customer"}}
		qs["join_fallback"] = j
	}
	out := make(map[string]string, len(qs))
	for name, q := range qs {
		out[name] = sql.Render(q)
	}
	return out
}

// allFns applies each aggregation function to arg, aliased by its
// initial letter (count → c, …).
func allFns(arg string) []query.Aggregate {
	return []query.Aggregate{
		{Fn: query.Count, As: "c"}, {Fn: query.Sum, Arg: arg, As: "s"},
		{Fn: query.Min, Arg: arg, As: "lo"}, {Fn: query.Max, Arg: arg, As: "hi"},
		{Fn: query.Avg, Arg: arg, As: "a"},
	}
}

// post issues one /query request; ndjson selects the streaming protocol.
func post(t *testing.T, h http.Handler, sqlText string, ndjson bool) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(wire.QueryRequest{SQL: sqlText})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if ndjson {
		req.Header.Set("Accept", wire.ContentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func splitLines(b []byte) [][]byte {
	lines := bytes.Split(b, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// compareNDJSON requires got to equal want byte for byte, except the
// trailer's elapsed time.
func compareNDJSON(t *testing.T, name string, want, got *httptest.ResponseRecorder) {
	t.Helper()
	if want.Code != got.Code {
		t.Fatalf("%s: status %d, want %d (body %s)", name, got.Code, want.Code, got.Body)
	}
	wl, gl := splitLines(want.Body.Bytes()), splitLines(got.Body.Bytes())
	if len(wl) != len(gl) {
		t.Fatalf("%s: %d lines, want %d\nserial tail: %s\ncluster tail: %s",
			name, len(gl), len(wl), tail(wl), tail(gl))
	}
	for i := 0; i < len(wl)-1; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Fatalf("%s line %d:\nserial:  %s\ncluster: %s", name, i, wl[i], gl[i])
		}
	}
	var wt, gt wire.Trailer
	if err := json.Unmarshal(wl[len(wl)-1], &wt); err != nil {
		t.Fatalf("%s: serial trailer: %v", name, err)
	}
	if err := json.Unmarshal(gl[len(gl)-1], &gt); err != nil {
		t.Fatalf("%s: cluster trailer: %v", name, err)
	}
	wt.ElapsedMillis, gt.ElapsedMillis = 0, 0
	if wt != gt {
		t.Fatalf("%s: trailer %+v, want %+v", name, gt, wt)
	}
}

func tail(lines [][]byte) []byte {
	if len(lines) == 0 {
		return nil
	}
	return lines[len(lines)-1]
}

// compareBuffered requires the non-streaming JSON responses to match,
// except elapsed time.
func compareBuffered(t *testing.T, name string, want, got *httptest.ResponseRecorder) {
	t.Helper()
	if want.Code != got.Code {
		t.Fatalf("%s: status %d, want %d (body %s)", name, got.Code, want.Code, got.Body)
	}
	var wm, gm map[string]any
	if err := json.Unmarshal(want.Body.Bytes(), &wm); err != nil {
		t.Fatalf("%s: serial body: %v", name, err)
	}
	if err := json.Unmarshal(got.Body.Bytes(), &gm); err != nil {
		t.Fatalf("%s: cluster body: %v", name, err)
	}
	delete(wm, "elapsedMillis")
	delete(gm, "elapsedMillis")
	if !reflect.DeepEqual(wm, gm) {
		t.Fatalf("%s:\nserial:  %v\ncluster: %v", name, wm, gm)
	}
}

// TestScatterGatherGolden: at 1, 2, 3 and 4 shards, every workload
// query — streaming and buffered — answers byte-identically to the
// serial server. One shard degenerates to whole-relation replication,
// so it exercises the local fallback across the board; three shards
// makes the segment cuts uneven.
func TestScatterGatherGolden(t *testing.T) {
	queries := goldenQueries()
	for _, shards := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tc := newTestCluster(t, shards, 1, 0, nil)
			for name, sqlText := range queries {
				compareNDJSON(t, name, post(t, tc.serial, sqlText, true), post(t, tc.co, sqlText, true))
				compareBuffered(t, name, post(t, tc.serial, sqlText, false), post(t, tc.co, sqlText, false))
			}
			stats := tc.co.Stats()
			if shards > 1 && stats.Distributed == 0 {
				t.Fatalf("no queries distributed at %d shards: %+v", shards, stats)
			}
			if stats.LocalFallbacks == 0 {
				t.Fatalf("fallback queries not accounted: %+v", stats)
			}
			if err := tc.co.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// tearingProxy relays to a worker but cuts every /query stream after a
// fixed number of rows, simulating a worker dying mid-stream.
type tearingProxy struct {
	h     http.Handler
	rows  int
	tears atomic.Int32
}

func (p *tearingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/query" {
		p.h.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, r)
	res := rec.Result()
	defer res.Body.Close()
	for k, vs := range res.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	body := rec.Body.Bytes()
	lines := bytes.SplitAfter(body, []byte("\n"))
	// header + rows + trailer: only tear streams long enough to have
	// undelivered rows left.
	if rec.Code != http.StatusOK || len(lines) <= p.rows+2 {
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
		return
	}
	w.WriteHeader(http.StatusOK)
	for i := 0; i <= p.rows; i++ {
		_, _ = w.Write(lines[i])
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	p.tears.Add(1)
	panic(http.ErrAbortHandler) // cut the connection mid-stream
}

// TestFailoverMidStream: the primary replica of every shard tears each
// query stream after a few rows; the coordinator must fail over to the
// healthy replica and resume at the exact next row — the merged output
// stays byte-identical, with no duplicated or dropped rows.
func TestFailoverMidStream(t *testing.T) {
	proxies := map[int]*tearingProxy{}
	tc := newTestCluster(t, 2, 2, 0, func(shard int, base string) string {
		p := &tearingProxy{h: mustReverse(t, base), rows: 7}
		ts := httptest.NewServer(p)
		t.Cleanup(ts.Close)
		proxies[shard] = p
		return ts.URL
	})
	for _, name := range []string{"scan", "groups", "buffered"} {
		var sqlText string
		switch name {
		case "scan":
			sqlText = sql.Render(workload.Q10(0))
		case "groups":
			sqlText = sql.Render(workload.Q1())
		case "buffered":
			sqlText = sql.Render(workload.Q7())
		}
		compareNDJSON(t, name, post(t, tc.serial, sqlText, true), post(t, tc.co, sqlText, true))
	}
	stats := tc.co.Stats()
	var failovers, tears uint64
	for _, s := range stats.Shards {
		failovers += s.Failovers
	}
	for _, p := range proxies {
		tears += uint64(p.tears.Load())
	}
	if failovers == 0 || tears == 0 {
		t.Fatalf("expected mid-stream failovers, got failovers=%d tears=%d (%+v)", failovers, tears, stats)
	}
}

// mustReverse returns a handler that forwards requests to base over
// real HTTP (a minimal reverse proxy for test topologies).
func mustReverse(t *testing.T, base string) http.Handler {
	t.Helper()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.String(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	})
}

// TestDeadReplicaRouting: a shard whose first replica refuses
// connections must transparently serve from its second replica.
func TestDeadReplicaRouting(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	tc := newTestCluster(t, 2, 2, 0, func(shard int, base string) string { return deadURL })
	sqlText := sql.Render(workload.Q2())
	compareNDJSON(t, "dead-primary", post(t, tc.serial, sqlText, true), post(t, tc.co, sqlText, true))
	// The dead replica is now in cooldown: the next query routes around
	// it without another connection failure.
	compareNDJSON(t, "cooldown", post(t, tc.serial, sqlText, true), post(t, tc.co, sqlText, true))
}

// TestHedgedRead: when the primary replica is slow to answer, a hedge
// fires against the second replica and wins without corrupting output.
func TestHedgedRead(t *testing.T) {
	tc := newTestCluster(t, 2, 2, 5*time.Millisecond, func(shard int, base string) string {
		inner := mustReverse(t, base)
		slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/query" {
				time.Sleep(300 * time.Millisecond)
			}
			inner.ServeHTTP(w, r)
		})
		ts := httptest.NewServer(slow)
		t.Cleanup(ts.Close)
		return ts.URL
	})
	sqlText := sql.Render(workload.Q4())
	compareNDJSON(t, "hedged", post(t, tc.serial, sqlText, true), post(t, tc.co, sqlText, true))
	stats := tc.co.Stats()
	var hedges uint64
	for _, s := range stats.Shards {
		hedges += s.Hedges
	}
	if hedges == 0 {
		t.Fatalf("expected hedged opens, stats %+v", stats)
	}
}

// TestCoordinatorDrain: a draining coordinator refuses queries with 503
// and reports unhealthy, while its stats survive.
func TestCoordinatorDrain(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 0, nil)
	sqlText := sql.Render(workload.Q5())
	if rec := post(t, tc.co, sqlText, true); rec.Code != http.StatusOK {
		t.Fatalf("pre-drain query: %d", rec.Code)
	}
	if err := tc.co.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec := post(t, tc.co, sqlText, true); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query: %d, want 503", rec.Code)
	}
	rec := httptest.NewRecorder()
	tc.co.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", rec.Code)
	}
	if !tc.co.Stats().Draining {
		t.Fatal("stats should report draining")
	}
}

// TestCoordinatorStats: the /stats endpoint accounts queries per shard.
func TestCoordinatorStats(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 0, nil)
	sqlText := sql.Render(workload.Q2())
	post(t, tc.co, sqlText, true)
	rec := httptest.NewRecorder()
	tc.co.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Catalog != "shop" || len(resp.Shards) != 2 {
		t.Fatalf("stats %+v", resp)
	}
	for i, s := range resp.Shards {
		if s.Queries == 0 || s.Rows == 0 {
			t.Fatalf("shard %d unaccounted: %+v", i, s)
		}
	}
	if resp.Distributed != 1 || resp.Queries != 1 {
		t.Fatalf("query counters %+v", resp)
	}
}

// TestNonFiniteResults: a value JSON cannot encode ends the response
// as it does on the serial server — an error trailer on a stream, the
// 400 error body when buffered — whether a shard produced it (its
// trailer carries the error, which is not a replica failure to retry)
// or the coordinator did, merging two finite SUM partials into +Inf.
func TestNonFiniteResults(t *testing.T) {
	iv, fv := values.NewInt, values.NewFloat
	db := fdb.Database{
		// The NaN is the last row, so it follows a finite row on its
		// shard: the shard fails mid-stream, after the coordinator's
		// header.
		"F": relation.MustNew("F", []string{"k", "x"}, []relation.Tuple{
			{iv(1), fv(1.5)}, {iv(2), fv(2.5)}, {iv(3), fv(3.5)}, {iv(4), fv(math.NaN())},
		}),
		// Each shard's SUM is finite; their merge is not.
		"H": relation.MustNew("H", []string{"p", "y"}, []relation.Tuple{
			{iv(1), fv(math.MaxFloat64)}, {iv(2), fv(math.MaxFloat64)},
		}),
	}
	cat, err := catalog.Build("shop", db)
	if err != nil {
		t.Fatal(err)
	}
	tc := newClusterOver(t, db, cat, 2, 1, hedgeDelay, nil)
	for _, q := range []struct{ name, sql, value string }{
		{"shard NaN", `SELECT k, x FROM F ORDER BY k`, "NaN"},
		{"merged +Inf", `SELECT SUM(y) AS s FROM H`, "+Inf"},
	} {
		t.Run(q.name, func(t *testing.T) {
			want, got := post(t, tc.serial, q.sql, true), post(t, tc.co, q.sql, true)
			compareNDJSON(t, q.name, want, got)
			lines := splitLines(got.Body.Bytes())
			var tr wire.Trailer
			if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(tr.Error, q.value) {
				t.Fatalf("trailer error %q does not name %s", tr.Error, q.value)
			}
			want, got = post(t, tc.serial, q.sql, false), post(t, tc.co, q.sql, false)
			if got.Code != http.StatusBadRequest || !bytes.Equal(want.Body.Bytes(), got.Body.Bytes()) {
				t.Fatalf("buffered: status %d body %s; serial %d %s", got.Code, got.Body, want.Code, want.Body)
			}
		})
	}
	if st := tc.co.Stats(); st.Shards[0].Retries+st.Shards[0].Failovers+st.Shards[1].Retries+st.Shards[1].Failovers != 0 {
		t.Fatalf("a non-finite value was retried as a replica failure: %+v", st.Shards)
	}
}
