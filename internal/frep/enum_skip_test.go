package frep

import (
	"fmt"
	"testing"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
)

// collect drains an enumerator into cloned tuples.
func collect(en *StoreEnumerator) []relation.Tuple {
	var out []relation.Tuple
	for en.Next() {
		out = append(out, en.Tuple().Clone())
	}
	return out
}

// wantSuffix asserts that skipping k rows reported skipped and left
// exactly full[min(k, len)..] to enumerate.
func wantSuffix(t *testing.T, what string, k, skipped int, rest, full []relation.Tuple) {
	t.Helper()
	wantSkipped := k
	if k > len(full) {
		wantSkipped = len(full)
	}
	if skipped != wantSkipped {
		t.Fatalf("%s: Skip(%d) = %d, want %d", what, k, skipped, wantSkipped)
	}
	if len(rest) != len(full)-wantSkipped {
		t.Fatalf("%s: after Skip(%d) got %d rows, want %d", what, k, len(rest), len(full)-wantSkipped)
	}
	for i := range rest {
		if relation.Compare(rest[i], full[wantSkipped+i]) != 0 {
			t.Fatalf("%s: Skip(%d) row %d = %v, want %v", what, k, i, rest[i], full[wantSkipped+i])
		}
	}
}

// TestSkipMatchesNext asserts that Skip(k) then Next enumerates exactly
// the suffix after k tuples, with and without order specs, for every k.
func TestSkipMatchesNext(t *testing.T) {
	_, f, s, roots := buildTestStore(t)
	for _, order := range [][]OrderSpec{
		nil,
		{{Attr: "a", Desc: true}, {Attr: "b"}},
	} {
		newEnum := func() *StoreEnumerator {
			en, err := NewStoreEnumerator(f, s, roots, order)
			if err != nil {
				t.Fatal(err)
			}
			return en
		}
		full := collect(newEnum())
		for k := 0; k <= len(full)+1; k++ {
			en := newEnum()
			skipped := en.Skip(k)
			wantSuffix(t, fmt.Sprintf("order %v", order), k, skipped, collect(en), full)
		}
	}
}

// TestGroupSkipMatchesNext asserts the grouped enumerator skips whole
// groups equivalently to stepping.
func TestGroupSkipMatchesNext(t *testing.T) {
	_, f, s, roots := buildTestStore(t)
	newEnum := func() *StoreGroupEnumerator {
		ge, err := NewStoreGroupEnumerator(f, s, roots, []OrderSpec{{Attr: "a"}},
			[]ftree.AggField{{Fn: ftree.Count}, {Fn: ftree.Sum, Arg: "c"}})
		if err != nil {
			t.Fatal(err)
		}
		return ge
	}
	collectG := func(ge *StoreGroupEnumerator) []relation.Tuple {
		var out []relation.Tuple
		for {
			ok, err := ge.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			out = append(out, ge.Tuple().Clone())
		}
	}
	full := collectG(newEnum())
	if len(full) != 3 { // groups a=1,2,3
		t.Fatalf("%d groups, want 3", len(full))
	}
	for k := 0; k <= len(full)+1; k++ {
		ge := newEnum()
		skipped := ge.Skip(k)
		wantSuffix(t, "groups", k, skipped, collectG(ge), full)
	}
}
