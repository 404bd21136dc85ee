package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/wire"
)

// TestResponseBytesMatchEncodingJSON pins the response bytes on both
// transports to encoding/json of the plain Go values — the rule bench/
// and every client that hashes rows rely on: each NDJSON row line and
// each element of the buffered body's "rows" equals json.Marshal of
// fdb.GoValue per column, and the header, trailer and buffered envelope
// equal encoding/json of the same structs (elapsedMillis aside). The
// data holds the strings and floats encoders get wrong — HTML and
// control characters, invalid UTF-8, line separators, both sides of the
// 'e'-form thresholds, subnormals, -0 and integral floats — plus a Bool
// column, a NULL and an AVG whose value is an integral float.
func TestResponseBytesMatchEncodingJSON(t *testing.T) {
	strs := []string{
		"<>&", "\b", "\f", "\x00\x01\x1f\x7f", `"\`, "a\xffb", "\u2028", "a\u2029b", "h\u00e9llo \U0001F600",
	}
	floats := []float64{
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 5e-324,
		math.Copysign(0, -1), 1<<53 + 2, 3.0, -0.1,
	}
	var tuples []relation.Tuple
	for i, s := range strs {
		z := values.NullValue()
		if i%2 == 0 {
			z = values.NewInt(int64(i))
		}
		tuples = append(tuples, relation.Tuple{
			values.NewInt(int64(i)), values.NewString(s), values.NewFloat(floats[i]), values.NewBool(i%3 == 0), z,
		})
	}
	iv := values.NewInt
	db := fdb.Database{
		"S": relation.MustNew("S", []string{"k", "s", "f", "b", "z"}, tuples),
		"A": relation.MustNew("A", []string{"g", "y"}, []relation.Tuple{
			{iv(1), iv(2)}, {iv(1), iv(4)}, {iv(2), iv(5)}, {iv(2), iv(6)},
		}),
	}
	queries := []string{
		`SELECT k, s, f, b, z FROM S ORDER BY k`,
		`SELECT g, AVG(y) AS a FROM A GROUP BY g ORDER BY g`,
	}

	// The AVG must reach the encoder as an integral Float, or the test
	// would not exercise that case.
	q, err := fdb.ParseSQL(queries[1])
	if err != nil {
		t.Fatal(err)
	}
	_, want := expectedRows(t, q, db)
	if v := want[0][1]; v.Kind() != values.Float || v.Float() != 3 {
		t.Fatalf("AVG = %v (%s), want the integral float 3", v, v.Kind())
	}

	s := newTestServer(t, Config{Databases: map[string]fdb.Database{"enc": db}})
	for _, sqlText := range queries {
		q, err := fdb.ParseSQL(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		cols, rows := expectedRows(t, q, db)
		wantRows := make([][]byte, len(rows))
		plain := make([][]any, len(rows))
		for i, r := range rows {
			plain[i] = make([]any, len(r))
			for j, v := range r {
				plain[i][j] = fdb.GoValue(v)
			}
			wantRows[i] = marshal(t, plain[i])
		}

		// NDJSON first: the plan cache misses, so cached is false.
		hdr, _, tr, rec := postNDJSON(t, s, QueryRequest{SQL: sqlText})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: NDJSON status %d: %s", sqlText, rec.Code, rec.Body)
		}
		lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
		if len(lines) != len(rows)+2 {
			t.Fatalf("%s: %d NDJSON lines, want %d", sqlText, len(lines), len(rows)+2)
		}
		if hdr.Cached {
			t.Fatalf("%s: first request reported a cached plan", sqlText)
		}
		expectLine(t, "header", lines[0], marshal(t, wire.Header{Columns: cols}))
		for i, want := range wantRows {
			expectLine(t, "row", lines[1+i], want)
		}
		expectLine(t, "trailer", lines[len(lines)-1],
			marshal(t, wire.Trailer{RowCount: len(rows), ElapsedMillis: tr.ElapsedMillis}))

		// Buffered second: the plan cache hits.
		resp, rec := postQuery(t, s, QueryRequest{SQL: sqlText})
		if resp == nil {
			t.Fatalf("%s: buffered status %d: %s", sqlText, rec.Code, rec.Body)
		}
		var raw struct{ Rows []json.RawMessage }
		if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
			t.Fatal(err)
		}
		if len(raw.Rows) != len(rows) {
			t.Fatalf("%s: %d buffered rows, want %d", sqlText, len(raw.Rows), len(rows))
		}
		for i, want := range wantRows {
			expectLine(t, "buffered row", string(raw.Rows[i]), want)
		}
		env := marshal(t, QueryResponse{
			Columns: cols, Rows: plain, RowCount: len(rows), Cached: true, ElapsedMillis: resp.ElapsedMillis,
		})
		expectLine(t, "buffered body", strings.TrimSuffix(rec.Body.String(), "\n"), env)
		if !strings.HasSuffix(rec.Body.String(), "}\n") {
			t.Fatalf("%s: buffered body does not end in one newline", sqlText)
		}
	}
}

// expectedRows runs q in-process and returns its columns and tuples.
func expectedRows(t *testing.T, q *fdb.Query, db fdb.Database) ([]string, []relation.Tuple) {
	t.Helper()
	res, err := fdb.NewEngine().Run(q, db)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	rows, err := res.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out []relation.Tuple
	for rows.Next() {
		out = append(out, append(relation.Tuple(nil), rows.Tuple()...))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return rows.Columns(), out
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func expectLine(t *testing.T, what, got string, want []byte) {
	t.Helper()
	if !bytes.Equal([]byte(got), want) {
		t.Fatalf("%s:\n got  %s\n want %s", what, got, want)
	}
}
