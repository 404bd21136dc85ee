package sql

import (
	"strings"
	"testing"
)

func TestParseLimitOffset(t *testing.T) {
	q, err := Parse(`SELECT a FROM R ORDER BY a LIMIT 5 OFFSET 10`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != 5 || q.Offset != 10 {
		t.Fatalf("limit=%d offset=%d, want 5, 10", q.Limit, q.Offset)
	}
}

func TestParseOffsetWithoutLimit(t *testing.T) {
	q, err := Parse(`SELECT a FROM R ORDER BY a OFFSET 3`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != 0 || q.Offset != 3 {
		t.Fatalf("limit=%d offset=%d, want 0, 3", q.Limit, q.Offset)
	}
}

// TestParseLimitZero: LIMIT 0 is an error naming the clause (0 means
// "no limit" in query.Query), while OFFSET 0 stays valid.
func TestParseLimitZero(t *testing.T) {
	_, err := Parse(`SELECT a FROM R ORDER BY a LIMIT 0`)
	if err == nil || !strings.Contains(err.Error(), "LIMIT") {
		t.Fatalf("Parse(LIMIT 0) error = %v, want one naming LIMIT", err)
	}
	q, err := Parse(`SELECT a FROM R ORDER BY a LIMIT 5 OFFSET 0`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != 5 || q.Offset != 0 {
		t.Fatalf("limit=%d offset=%d, want 5, 0", q.Limit, q.Offset)
	}
}

func TestParseOffsetErrors(t *testing.T) {
	for _, stmt := range []string{
		`SELECT a FROM R OFFSET`,
		`SELECT a FROM R OFFSET x`,
		`SELECT a FROM R OFFSET -1`,
		`SELECT a FROM R OFFSET 1 LIMIT 2`, // OFFSET must follow LIMIT
	} {
		if _, err := Parse(stmt); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", stmt)
		}
	}
}

// TestParseErrorsCarryPosition asserts parse errors name the byte
// position of the offending token.
func TestParseErrorsCarryPosition(t *testing.T) {
	cases := []struct {
		stmt string
		frag string
	}{
		{`SELECT a FROM R LIMIT x`, "at position 23"},
		{`SELECT a FROM R OFFSET x`, "at position 24"},
		{`SELECT a FROM 5`, "at position 15"},
		{`SELECT a FROM R WHERE = 3`, "at position 23"},
	}
	for _, c := range cases {
		_, err := Parse(c.stmt)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c.stmt)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q) error %q does not contain %q", c.stmt, err, c.frag)
		}
	}
}

// TestNormalizeOffsetSpelling asserts the OFFSET clause normalises to a
// canonical spelling, keeping plan-cache keys stable across clients.
func TestNormalizeOffsetSpelling(t *testing.T) {
	variants := []string{
		"SELECT a FROM R LIMIT 5 OFFSET 10",
		"select a from R limit 5 offset 10;",
		"SELECT  a\nFROM R\n LIMIT 5\tOffset 10",
	}
	want := Normalize(variants[0])
	if !strings.Contains(want, "OFFSET 10") {
		t.Fatalf("Normalize did not uppercase OFFSET: %q", want)
	}
	for _, v := range variants[1:] {
		if got := Normalize(v); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", v, got, want)
		}
	}
}
