package server

import (
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// TestNonFiniteValues: JSON has no encoding for NaN or ±Inf, so a
// result holding one ends as a query error — the buffered path answers
// with the 400 error body, a stream ends with the rows before it and an
// error trailer naming the value.
func TestNonFiniteValues(t *testing.T) {
	iv, fv := values.NewInt, values.NewFloat
	db := fdb.Database{
		"F": relation.MustNew("F", []string{"k", "x"}, []relation.Tuple{
			{iv(1), fv(1.5)}, {iv(2), fv(math.NaN())}, {iv(3), fv(2.5)},
		}),
		"G": relation.MustNew("G", []string{"g", "h", "y"}, []relation.Tuple{
			{iv(0), iv(1), fv(1)}, {iv(1), iv(1), fv(math.MaxFloat64)}, {iv(1), iv(2), fv(math.MaxFloat64)},
		}),
	}
	s := newTestServer(t, Config{Databases: map[string]fdb.Database{"nf": db}})
	for _, tc := range []struct{ name, sql, value string }{
		{"NaN row", `SELECT k, x FROM F ORDER BY k`, "NaN"},
		{"+Inf SUM", `SELECT g, SUM(y) AS s FROM G GROUP BY g ORDER BY g`, "+Inf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, rec := postQuery(t, s, QueryRequest{SQL: tc.sql})
			if resp != nil || rec.Code != http.StatusBadRequest {
				t.Fatalf("buffered: status %d, body %q; want 400", rec.Code, rec.Body)
			}
			if body := rec.Body.String(); !strings.Contains(body, `"error"`) || !strings.Contains(body, tc.value) {
				t.Fatalf("buffered: body %q does not name %s", body, tc.value)
			}

			_, rows, trailer, rec := postNDJSON(t, s, QueryRequest{SQL: tc.sql})
			if rec.Code != http.StatusOK {
				t.Fatalf("stream: status %d", rec.Code)
			}
			if len(rows) != 1 || trailer.RowCount != 1 {
				t.Fatalf("stream: %d rows, trailer rowCount %d; want the one finite row", len(rows), trailer.RowCount)
			}
			if !strings.Contains(trailer.Error, tc.value) {
				t.Fatalf("stream: trailer error %q does not name %s", trailer.Error, tc.value)
			}
		})
	}
}
