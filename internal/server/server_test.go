package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/sql"
)

func pizzeria(t *testing.T) fdb.Database {
	t.Helper()
	read := func(name, csv string) *fdb.Relation {
		rel, err := fdb.ReadCSV(name, strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	return fdb.Database{
		"Orders": read("Orders",
			"customer,date,pizza\n"+
				"Mario,Monday,Capricciosa\n"+
				"Mario,Tuesday,Margherita\n"+
				"Pietro,Friday,Hawaii\n"+
				"Lucia,Friday,Hawaii\n"+
				"Mario,Friday,Capricciosa\n"),
		"Pizzas": read("Pizzas",
			"pizza2,item\n"+
				"Margherita,base\nCapricciosa,base\nCapricciosa,ham\nCapricciosa,mushrooms\n"+
				"Hawaii,base\nHawaii,ham\nHawaii,pineapple\n"),
		"Items": read("Items",
			"item2,price\nbase,6\nham,1\nmushrooms,1\npineapple,2\n"),
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Databases == nil {
		cfg.Databases = map[string]fdb.Database{"pizzeria": pizzeria(t)}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postQuery(t *testing.T, h http.Handler, req QueryRequest) (*QueryResponse, *httptest.ResponseRecorder) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, rec
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, rec.Body)
	}
	return &resp, rec
}

const revenueSQL = `SELECT customer, SUM(price) AS revenue
	FROM Orders, Pizzas, Items
	WHERE pizza = pizza2 AND item = item2
	GROUP BY customer ORDER BY revenue DESC, customer`

func TestQueryRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	resp, rec := postQuery(t, s, QueryRequest{SQL: revenueSQL})
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if want := []string{"customer", "revenue"}; !equalStrings(resp.Columns, want) {
		t.Fatalf("columns = %v, want %v", resp.Columns, want)
	}
	if resp.RowCount != 3 || len(resp.Rows) != 3 {
		t.Fatalf("rowCount = %d, rows = %v", resp.RowCount, resp.Rows)
	}
	// Mario ordered Capricciosa twice (8 each) and Margherita (6) → 22.
	if got := resp.Rows[0]; got[0] != "Mario" || got[1] != float64(22) {
		t.Fatalf("top row = %v, want [Mario 22]", got)
	}
	if resp.Cached {
		t.Fatal("first execution reported cached")
	}
}

func TestQuerySelectStar(t *testing.T) {
	s := newTestServer(t, Config{})
	resp, rec := postQuery(t, s, QueryRequest{SQL: `SELECT * FROM Items`})
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if len(resp.Columns) != 2 || resp.RowCount != 4 {
		t.Fatalf("columns = %v rowCount = %d", resp.Columns, resp.RowCount)
	}
}

func TestPlanCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	first, rec := postQuery(t, s, QueryRequest{SQL: revenueSQL})
	if first == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	// Same statement with different whitespace, keyword case and a
	// trailing semicolon must hit the cache and give identical rows.
	variant := `select customer, sum(price) as revenue
		from Orders, Pizzas, Items where pizza = pizza2 and item = item2
		group by customer order by revenue desc, customer;`
	second, rec := postQuery(t, s, QueryRequest{SQL: variant})
	if second == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if !second.Cached {
		t.Fatal("normalised repeat was not a cache hit")
	}
	if fmt.Sprint(second.Rows) != fmt.Sprint(first.Rows) {
		t.Fatalf("cached rows differ:\n%v\n%v", second.Rows, first.Rows)
	}
	st := s.Stats()
	db := st.Databases["pizzeria"]
	if db.PlanCache.Hits != 1 || db.PlanCache.Misses != 1 {
		t.Fatalf("cache stats = %+v", db.PlanCache)
	}
	if db.PlanCacheHitRate <= 0 {
		t.Fatalf("hit rate = %v, want > 0", db.PlanCacheHitRate)
	}
}

// TestPlanTemplateHit: two statements of one shape that differ in a
// filter constant and its operator miss the statement cache both times,
// and the second binds to the engine's plan template, which /stats
// reports at the top level as planTemplates.
func TestPlanTemplateHit(t *testing.T) {
	s := newTestServer(t, Config{})
	const shape = `SELECT customer, SUM(price) AS revenue
		FROM Orders, Pizzas, Items
		WHERE pizza = pizza2 AND item = item2 AND price %s %d
		GROUP BY customer ORDER BY customer`
	for i, want := range []string{"[[Lucia 6] [Mario 18] [Pietro 6]]", "[[Lucia 3] [Mario 4] [Pietro 3]]"} {
		op, c := ">", 5
		if i == 1 {
			op, c = "<=", 2
		}
		resp, rec := postQuery(t, s, QueryRequest{SQL: fmt.Sprintf(shape, op, c)})
		if resp == nil {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if resp.Cached {
			t.Fatalf("statement %d reported a plan-cache hit", i)
		}
		if got := fmt.Sprint(resp.Rows); got != want {
			t.Fatalf("statement %d rows = %s, want %s", i, got, want)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st struct {
		PlanTemplates struct{ Hits, Misses, Size, Capacity int }
		Databases     map[string]struct{ PlanCache struct{ Hits, Misses int } }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding /stats: %v\n%s", err, rec.Body)
	}
	if pt := st.PlanTemplates; pt.Hits != 1 || pt.Misses != 1 || pt.Size != 1 || pt.Capacity < 1 {
		t.Fatalf("planTemplates = %+v, want 1 hit, 1 miss, 1 shape\n%s", pt, rec.Body)
	}
	if pc := st.Databases["pizzeria"].PlanCache; pc.Hits != 0 || pc.Misses != 2 {
		t.Fatalf("planCache = %+v, want 0 hits and 2 misses", pc)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 2})
	stmts := []string{
		`SELECT * FROM Items`,
		`SELECT * FROM Pizzas`,
		`SELECT * FROM Orders`,
	}
	for _, q := range stmts {
		if resp, rec := postQuery(t, s, QueryRequest{SQL: q}); resp == nil {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	// Items was least recently used and must have been evicted.
	resp, rec := postQuery(t, s, QueryRequest{SQL: stmts[0]})
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if resp.Cached {
		t.Fatal("evicted statement reported as cache hit")
	}
	resp, rec = postQuery(t, s, QueryRequest{SQL: stmts[2]})
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if !resp.Cached {
		t.Fatal("recently used statement missed the cache")
	}
}

// TestConcurrentQueries drives many goroutines through the full
// parse/prepare/cache/execute path; run with -race it is the server's
// concurrency-safety test.
func TestConcurrentQueries(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	stmts := []string{
		revenueSQL,
		`SELECT * FROM Orders ORDER BY customer`,
		`SELECT pizza, COUNT(*) AS n FROM Orders GROUP BY pizza ORDER BY n DESC`,
		`SELECT item, MIN(price) AS lo, MAX(price) AS hi FROM Pizzas, Items WHERE item = item2 GROUP BY item`,
		`SELECT customer FROM Orders WHERE date = 'Friday'`,
	}
	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := stmts[(g+i)%len(stmts)]
				body, _ := json.Marshal(QueryRequest{SQL: q})
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d: status %d: %s", g, rec.Code, rec.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Queries != goroutines*iters {
		t.Fatalf("queries = %d, want %d", st.Queries, goroutines*iters)
	}
	if st.Errors != 0 {
		t.Fatalf("errors = %d", st.Errors)
	}
	db := st.Databases["pizzeria"]
	if db.PlanCacheHitRate <= 0 {
		t.Fatalf("plan cache hit rate = %v, want > 0 under repetition", db.PlanCacheHitRate)
	}
}

func TestQueryErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  *http.Request
		code int
	}{
		{"get method", httptest.NewRequest(http.MethodGet, "/query", nil), http.StatusMethodNotAllowed},
		{"bad json", httptest.NewRequest(http.MethodPost, "/query", strings.NewReader("{")), http.StatusBadRequest},
		{"missing sql", httptest.NewRequest(http.MethodPost, "/query", strings.NewReader("{}")), http.StatusBadRequest},
		{"parse error", httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"sql":"SELEC x"}`)), http.StatusBadRequest},
		{"unknown relation", httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"sql":"SELECT * FROM Nope"}`)), http.StatusBadRequest},
		{"unknown database", httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"sql":"SELECT * FROM Items","db":"nope"}`)), http.StatusNotFound},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, tc.req)
		if rec.Code != tc.code {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, rec.Code, tc.code, rec.Body)
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: body is not an error response: %s", tc.name, rec.Body)
		}
	}
}

func TestMaxRowsTruncation(t *testing.T) {
	s := newTestServer(t, Config{MaxRows: 2})
	resp, rec := postQuery(t, s, QueryRequest{SQL: `SELECT * FROM Items`})
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if resp.RowCount != 2 || !resp.Truncated {
		t.Fatalf("rowCount = %d truncated = %v, want 2 rows truncated", resp.RowCount, resp.Truncated)
	}
}

func TestMultipleDatabases(t *testing.T) {
	tiny, err := fdb.ReadCSV("T", strings.NewReader("x\n1\n2\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Databases: map[string]fdb.Database{
			"pizzeria": pizzeria(t),
			"tiny":     {"T": tiny},
		},
		DefaultDB: "pizzeria",
	})
	resp, rec := postQuery(t, s, QueryRequest{SQL: `SELECT * FROM T`, DB: "tiny"})
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if resp.RowCount != 2 {
		t.Fatalf("rowCount = %d, want 2", resp.RowCount)
	}
	// The default database does not know T.
	if resp, rec := postQuery(t, s, QueryRequest{SQL: `SELECT * FROM T`}); resp != nil {
		t.Fatal("query against default database should have failed")
	} else if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	if resp, r := postQuery(t, s, QueryRequest{SQL: `SELECT * FROM Items`}); resp == nil {
		t.Fatalf("status %d: %s", r.Code, r.Body)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats body: %v\n%s", err, rec.Body)
	}
	if st.Queries != 1 || st.P50Millis < 0 {
		t.Fatalf("stats = %+v", st)
	}
	// An OFFSET query through the shared (ranked) execution path must
	// surface in the seek-vs-skip routing counters.
	if resp, r := postQuery(t, s, QueryRequest{SQL: `SELECT * FROM Items OFFSET 1`}); resp == nil {
		t.Fatalf("status %d: %s", r.Code, r.Body)
	}
	st2 := serveStats(t, s)
	if before, after := st.Offsets.SeekOffsets+st.Offsets.SkipOffsets,
		st2.Offsets.SeekOffsets+st2.Offsets.SkipOffsets; after <= before {
		t.Fatalf("OFFSET query did not advance the routing counters: %+v -> %+v", st.Offsets, st2.Offsets)
	}
	if st2.Offsets.SeekOffsets <= st.Offsets.SeekOffsets {
		t.Fatalf("ranked shared execution did not take the seek route: %+v -> %+v", st.Offsets, st2.Offsets)
	}
}

// serveStats fetches and decodes /stats.
func serveStats(t *testing.T, s *Server) StatsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats body: %v\n%s", err, rec.Body)
	}
	return st
}

func TestNormalizeKeysMatch(t *testing.T) {
	a := sql.Normalize("SELECT  *\n FROM Items;")
	b := sql.Normalize("select * from Items")
	if a != b {
		t.Fatalf("normalised keys differ: %q vs %q", a, b)
	}
	if c := sql.Normalize("SELECT * FROM items"); c == a {
		t.Fatal("identifier case must be preserved")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
