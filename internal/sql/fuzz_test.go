package sql

import (
	"reflect"
	"testing"

	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/workload"
)

// FuzzParse pins three properties of the SQL front end on arbitrary
// input: ParseStatement never panics; a statement that parses means the
// same after Normalize (the server's plan cache keys on Normalize, so
// two texts with one key must be one query); and Parse(Render(q))
// round-trips every parsed query q (the coordinator ships rendered
// queries to shards).
func FuzzParse(f *testing.F) {
	for _, q := range []*query.Query{
		workload.Q1(), workload.Q2(), workload.Q3(), workload.Q4(), workload.Q5(),
		workload.Q6(), workload.Q7(), workload.Q8(), workload.Q9(),
		workload.Q10(10), workload.Q11(10), workload.Q12(10), workload.Q13(10),
	} {
		f.Add(Render(q))
	}
	for _, s := range []string{
		`SELECT customer, SUM(price) AS revenue FROM Orders, Pizzas, Items WHERE pizza = pizza2 AND item = item2 GROUP BY customer ORDER BY revenue DESC LIMIT 3 OFFSET 6;`,
		`select * from R3 where date >= -12 and price < 2.5 order by date desc`,
		`SELECT a FROM T WHERE name = 'O''Hare' AND s <> ''`,
		`SELECT COUNT(*) AS n, AVG(x) AS m FROM T GROUP BY g HAVING n > 1`,
		`INSERT INTO Orders VALUES ('Anna', 'Sunday', 'Margherita'), ('Ben', -1, 2.5)`,
		`UPSERT INTO Items VALUES ('ham', 4);`,
		`DELETE FROM Orders WHERE customer = 'it''s' AND date <= -3.25`,
		`DELETE FROM Items`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		stmt, err := ParseStatement(text)
		if err != nil {
			return
		}
		norm, err := ParseStatement(Normalize(text))
		if err != nil {
			t.Fatalf("Normalize(%q) = %q does not parse: %v", text, Normalize(text), err)
		}
		if !reflect.DeepEqual(norm, stmt) {
			t.Fatalf("Normalize changed the statement\ninput: %q\nnormalized: %q\n got: %#v\nwant: %#v", text, Normalize(text), norm, stmt)
		}
		q, ok := stmt.(*query.Query)
		if !ok {
			return
		}
		rendered := Render(q)
		back, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(Render(q)) = %v\ninput: %q\nrendered: %q", err, text, rendered)
		}
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("Render round trip changed the query\ninput: %q\nrendered: %q\n got: %#v\nwant: %#v", text, rendered, back, q)
		}
	})
}
