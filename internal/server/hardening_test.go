package server

// Hardening regressions for the streaming and plan-cache paths: a
// client abort mid-row must still return the pooled store and must not
// emit a trailer after a partial row, and the plan cache must never
// conflate statements differing in LIMIT/OFFSET literals nor share
// base factorisations across databases.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/engine"
)

// abortWriter is a ResponseWriter whose Write fails once a byte budget
// is spent, completing a partial write first — the observable shape of
// a client that disconnects mid-row.
type abortWriter struct {
	hdr    http.Header
	buf    bytes.Buffer
	budget int
	status int
}

func (w *abortWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}

func (w *abortWriter) WriteHeader(code int) { w.status = code }

func (w *abortWriter) Write(p []byte) (int, error) {
	if w.budget <= 0 {
		return 0, errors.New("client gone")
	}
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		w.buf.Write(p[:n])
		return n, errors.New("client gone")
	}
	w.budget -= len(p)
	w.buf.Write(p)
	return len(p), nil
}

func (w *abortWriter) Flush() {}

// bigServer serves one large relation so streams span many rows.
func bigServer(t *testing.T, rows int, cfg Config) *Server {
	t.Helper()
	var csv strings.Builder
	csv.WriteString("k,v\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&csv, "%d,%d\n", i, i%97)
	}
	rel, err := fdb.ReadCSV("Big", strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Databases = map[string]fdb.Database{"big": {"Big": rel}}
	return newTestServer(t, cfg)
}

// TestNDJSONAbortMidRowReturnsStore aborts the response writer partway
// through a row: the handler must close the cursor (returning the
// pooled store exactly once) and must not write a trailer after the
// partial row. The filtered statement's σ runs on a pooled copy of the
// relation's base; the operator-free one reads the base itself, so it
// returns no store.
func TestNDJSONAbortMidRowReturnsStore(t *testing.T) {
	s := bigServer(t, 20000, Config{})
	for _, tc := range []struct {
		sql     string
		returns int64
	}{
		{`SELECT k, v FROM Big WHERE v >= 0 ORDER BY k`, 1},
		{`SELECT k, v FROM Big ORDER BY k`, 0},
	} {
		body, _ := json.Marshal(QueryRequest{SQL: tc.sql})
		r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		r.Header.Set("Accept", "application/x-ndjson")
		// Enough budget for the header and a few hundred rows, then a
		// partial write of a row.
		w := &abortWriter{budget: 2100}
		before := engine.StorePoolReturns()
		s.ServeHTTP(w, r)
		if d := engine.StorePoolReturns() - before; d != tc.returns {
			t.Fatalf("%s: pooled store returned %d times after aborted stream, want exactly %d", tc.sql, d, tc.returns)
		}
		out := w.buf.String()
		if strings.Contains(out, `"rowCount"`) {
			t.Fatalf("%s: trailer written after a partial row:\n...%s", tc.sql, out[len(out)-200:])
		}
		if strings.HasSuffix(out, "\n") {
			t.Fatalf("%s: output ends on a line boundary; the abort should have cut a row mid-line", tc.sql)
		}
	}
	// The server must still answer cleanly afterwards.
	resp, rec := postQuery(t, s, QueryRequest{SQL: `SELECT k FROM Big WHERE k < 3 ORDER BY k`})
	if resp == nil {
		t.Fatalf("follow-up query failed: %s", rec.Body)
	}
	if resp.RowCount != 3 {
		t.Fatalf("follow-up rowCount = %d, want 3", resp.RowCount)
	}
}

// TestNDJSONAbortBeforeRowsReturnsStore aborts so early that even the
// header write fails.
func TestNDJSONAbortBeforeRowsReturnsStore(t *testing.T) {
	s := bigServer(t, 5000, Config{})
	body, _ := json.Marshal(QueryRequest{SQL: `SELECT k FROM Big ORDER BY k`})
	r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	r.Header.Set("Accept", "application/x-ndjson")
	w := &abortWriter{budget: 0}
	before := engine.StorePoolReturns()
	s.ServeHTTP(w, r)
	if d := engine.StorePoolReturns() - before; d != 1 {
		t.Fatalf("pooled store returned %d times, want exactly 1", d)
	}
	if w.buf.Len() != 0 {
		t.Fatalf("wrote %d bytes on a dead connection", w.buf.Len())
	}
}

// TestPlanCacheKeysLimitOffsetLiterals asserts statements differing
// only in LIMIT/OFFSET literals get distinct cache entries: a cached
// λk+m plan must never be served for different k or m.
func TestPlanCacheKeysLimitOffsetLiterals(t *testing.T) {
	s := newTestServer(t, Config{})
	base := `SELECT item2, price FROM Items ORDER BY item2`
	cases := []struct {
		sql  string
		want int
	}{
		{base + ` LIMIT 1`, 1},
		{base + ` LIMIT 2`, 2},
		{base + ` LIMIT 3`, 3},
		{base + ` LIMIT 2 OFFSET 3`, 1}, // Items has 4 rows
		{base + ` LIMIT 2 OFFSET 1`, 2},
	}
	// First pass compiles, second pass must hit the cache and still
	// honour each statement's own literals.
	for pass := 0; pass < 2; pass++ {
		for _, c := range cases {
			resp, rec := postQuery(t, s, QueryRequest{SQL: c.sql})
			if resp == nil {
				t.Fatalf("%s: %s", c.sql, rec.Body)
			}
			if resp.RowCount != c.want {
				t.Fatalf("pass %d: %s returned %d rows, want %d", pass, c.sql, resp.RowCount, c.want)
			}
			if pass == 1 && !resp.Cached {
				t.Fatalf("pass 1: %s did not hit the plan cache", c.sql)
			}
		}
	}
}

// TestPlanCacheNotSharedAcrossDatabases primes the same (identically
// normalising) statement on two databases: each must serve its own
// data — a base shared by name would leak one catalogue's rows into
// the other.
func TestPlanCacheNotSharedAcrossDatabases(t *testing.T) {
	mk := func(price int) fdb.Database {
		rel, err := fdb.ReadCSV("Items", strings.NewReader(fmt.Sprintf("item2,price\nx,%d\n", price)))
		if err != nil {
			t.Fatal(err)
		}
		return fdb.Database{"Items": rel}
	}
	s := newTestServer(t, Config{
		Databases: map[string]fdb.Database{"a": mk(1), "b": mk(2)},
		DefaultDB: "a",
	})
	const q = `SELECT price FROM Items`
	check := func(db string, want float64) {
		t.Helper()
		// Twice: compile pass and cached pass.
		for pass := 0; pass < 2; pass++ {
			resp, rec := postQuery(t, s, QueryRequest{SQL: q, DB: db})
			if resp == nil {
				t.Fatalf("db %s: %s", db, rec.Body)
			}
			if len(resp.Rows) != 1 || resp.Rows[0][0].(float64) != want {
				t.Fatalf("db %s pass %d: rows = %v, want [[%v]]", db, pass, resp.Rows, want)
			}
		}
	}
	check("a", 1)
	check("b", 2) // must not see a's base despite the identical key
	check("a", 1) // and a must still see its own after b primed
}
