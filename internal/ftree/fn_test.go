package ftree_test

import (
	"math"
	"slices"
	"testing"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

var (
	null = values.NullValue()
	iv   = values.NewInt
	fv   = values.NewFloat
	nan  = values.NewFloat(math.NaN())
)

// same is bit-identity: equal kinds and payloads, or both NaN.
func same(a, b values.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == values.Float && math.IsNaN(a.Float()) {
		return math.IsNaN(b.Float())
	}
	return a.Raw() == b.Raw() && values.Compare(a, b) == 0
}

// lawDomains are the value sets each storable function's laws range
// over: Int wraparound at ±MaxInt64 and NULL, and Int/Float mixes whose
// sums are all exact (a wrapped Int sum and its Float promotion would
// differ by 2⁶⁴) and where no Int equals a Float (MIN and MAX keep the
// left of two equal operands, so 2 and 2.0 would tell the order apart).
var lawDomains = map[ftree.Fn][][]values.Value{
	ftree.Count: {{iv(0), iv(1), iv(3), iv(math.MaxInt64), iv(math.MaxInt64 - 1)}},
	ftree.Sum: {
		{null, iv(0), iv(1), iv(-3), iv(math.MaxInt64), iv(math.MinInt64), iv(math.MaxInt64 - 1)},
		{null, iv(0), iv(-3), fv(2.5), fv(-0.25), fv(1024)},
	},
	ftree.Min: {{null, iv(0), iv(-3), iv(math.MaxInt64), iv(math.MinInt64), fv(2.5), fv(-0.25)}},
	ftree.Max: {{null, iv(0), iv(-3), iv(math.MaxInt64), iv(math.MinInt64), fv(2.5), fv(-0.25)}},
}

// TestAggLaws checks each storable row of the table: the identity is
// neutral, ⊕ is associative and commutative, and scaling by n is the
// n-fold ⊕ (multiplication for COUNT and SUM, the value itself for MIN
// and MAX), the identity for n = 0.
func TestAggLaws(t *testing.T) {
	for fn, doms := range lawDomains {
		t.Run(fn.String(), func(t *testing.T) {
			if !fn.Storable() {
				t.Fatalf("%s is not storable", fn)
			}
			for _, dom := range doms {
				checkLaws(t, fn, dom)
			}
		})
	}
	// NaN: a SUM with a NaN term is NaN in any order. MIN and MAX compare
	// NaN equal to every number and keep their left operand, so they are
	// not commutative on NaN; every fold runs in document order.
	for _, x := range []values.Value{iv(1), fv(-2.5), nan} {
		if !same(ftree.Sum.Combine(nan, x), nan) || !same(ftree.Sum.Combine(x, nan), nan) ||
			!same(ftree.Sum.Scale(nan, 3), nan) {
			t.Errorf("SUM with NaN and %v is not NaN", x)
		}
	}
	for _, fn := range []ftree.Fn{ftree.Min, ftree.Max} {
		if !same(fn.Combine(nan, iv(1)), nan) || !same(fn.Combine(iv(1), nan), iv(1)) {
			t.Errorf("%s on NaN: %v, %v", fn, fn.Combine(nan, iv(1)), fn.Combine(iv(1), nan))
		}
	}
	for _, fn := range []ftree.Fn{ftree.Avg, 200} {
		if fn.Storable() {
			t.Errorf("%s must not be storable", fn)
		}
	}
}

// checkLaws checks fn's monoid laws over one domain.
func checkLaws(t *testing.T, fn ftree.Fn, dom []values.Value) {
	t.Helper()
	id := fn.Identity()
	for _, a := range dom {
		if l, r := fn.Combine(id, a), fn.Combine(a, id); !same(l, a) || !same(r, a) {
			t.Errorf("identity %v ⊕ %v = %v, %v ⊕ identity = %v", id, a, l, a, r)
		}
		for _, b := range dom {
			if ab, ba := fn.Combine(a, b), fn.Combine(b, a); !same(ab, ba) {
				t.Errorf("%v ⊕ %v = %v but %v ⊕ %v = %v", a, b, ab, b, a, ba)
			}
			for _, c := range dom {
				l, r := fn.Combine(fn.Combine(a, b), c), fn.Combine(a, fn.Combine(b, c))
				if !same(l, r) {
					t.Errorf("(%v ⊕ %v) ⊕ %v = %v but %v ⊕ (%v ⊕ %v) = %v", a, b, c, l, a, b, c, r)
				}
			}
		}
		folded := id
		for n := int64(0); n <= 7; n++ {
			if s := fn.Scale(a, n); !same(s, folded) {
				t.Errorf("scale(%v, %d) = %v, %d-fold ⊕ = %v", a, n, s, n, folded)
			}
			if !fn.NeedsCount() && n > 0 && !same(fn.Scale(a, n), a) {
				t.Errorf("%s must not scale: scale(%v, %d) = %v", fn, a, n, fn.Scale(a, n))
			}
			if acc := id; n > 0 {
				if fn.Fold(&acc, a, n); !same(acc, fn.Scale(a, n)) {
					t.Errorf("fold(identity, %v, %d) = %v", a, n, acc)
				}
			}
			folded = fn.Combine(folded, a)
		}
	}
}

// TestAggTableMatchesRDB folds each group's tuples through the table —
// every lowered field from its identity, one ⊕ per tuple, then the
// finalisers — and compares every output with internal/rdb's answer,
// over a NULL-only group, mixed groups, Int/Float promotion, Int
// wraparound, and (globally) no tuples at all.
func TestAggTableMatchesRDB(t *testing.T) {
	groups := [][]values.Value{
		{null, null},
		{iv(4), null, iv(-9)},
		{iv(2), fv(0.5), iv(7)},
		{iv(math.MaxInt64), iv(1)},
		{fv(-1.25)},
	}
	var ts []relation.Tuple
	for g, vs := range groups {
		for k, v := range vs {
			ts = append(ts, relation.Tuple{iv(int64(g)), iv(int64(k)), v})
		}
	}
	aggs := []query.Aggregate{
		{Fn: query.Count, As: "n"}, {Fn: query.Sum, Arg: "v", As: "s"},
		{Fn: query.Min, Arg: "v", As: "lo"}, {Fn: query.Max, Arg: "v", As: "hi"},
		{Fn: query.Avg, Arg: "v", As: "m"},
	}
	low, err := query.Lower(aggs)
	if err != nil {
		t.Fatal(err)
	}
	table := func(vs []values.Value) []values.Value {
		fields := make([]values.Value, len(low.Fields()))
		for i, fl := range low.Fields() {
			fields[i] = fl.Fn.Identity()
			for _, v := range vs {
				if !fl.Fn.HasArg() {
					v = iv(1)
				}
				fields[i] = fl.Fn.Combine(fields[i], v)
			}
		}
		out := make([]values.Value, len(aggs))
		low.FinalInto(out, fields)
		return out
	}
	for _, tc := range []struct {
		name   string
		tuples []relation.Tuple
		group  []string
		want   func(row relation.Tuple) []values.Value
	}{
		{"grouped", ts, []string{"g"}, func(row relation.Tuple) []values.Value { return table(groups[row[0].Int()]) }},
		{"empty", nil, nil, func(relation.Tuple) []values.Value { return table(nil) }},
	} {
		db := rdb.DB{"R": relation.MustNew("R", []string{"g", "k", "v"}, tc.tuples)}
		res, err := rdb.New().Run(&query.Query{Relations: []string{"R"}, GroupBy: tc.group, Aggregates: aggs}, db)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) == 0 {
			t.Fatalf("%s: rdb returned no rows", tc.name)
		}
		for _, row := range res.Tuples {
			want := row[len(tc.group):]
			if got := tc.want(row); !slices.EqualFunc(got, want, same) {
				t.Errorf("%s: row %v: table gives %v, rdb %v", tc.name, row, got, want)
			}
		}
	}
}

// TestLower: composite outputs lower onto shared storable fields, a
// function of the tuples drops its argument, and malformed applications
// are rejected.
func TestLower(t *testing.T) {
	low, err := ftree.Lower([]ftree.AggField{
		{Fn: ftree.Avg, Arg: "x"}, {Fn: ftree.Count, Arg: "y"},
		{Fn: ftree.Sum, Arg: "x"}, {Fn: ftree.Min, Arg: "y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []ftree.AggField{{Fn: ftree.Sum, Arg: "x"}, ftree.CountField(), {Fn: ftree.Min, Arg: "y"}}
	if !slices.Equal(low.Fields(), want) {
		t.Fatalf("fields %v, want %v", low.Fields(), want)
	}
	out := make([]values.Value, 4)
	low.FinalInto(out, []values.Value{iv(9), iv(4), iv(-1)})
	if !slices.EqualFunc(out, []values.Value{fv(2.25), iv(4), iv(9), iv(-1)}, same) {
		t.Fatalf("outputs %v", out)
	}
	for _, bad := range []ftree.AggField{{Fn: ftree.Sum}, {Fn: ftree.Avg}, {Fn: 9, Arg: "x"}} {
		if _, err := ftree.Lower([]ftree.AggField{bad}); err == nil {
			t.Errorf("Lower accepted %v", bad)
		}
	}
	for _, name := range []string{"count", "SUM", "Min", "max", "AVG"} {
		if fn, ok := ftree.ParseFn(name); !ok || !fn.Valid() {
			t.Errorf("ParseFn(%q) = %v, %v", name, fn, ok)
		}
	}
	if _, ok := ftree.ParseFn("median"); ok {
		t.Error("ParseFn accepted an unknown name")
	}
}
