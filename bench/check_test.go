package main

import (
	"testing"

	"github.com/factordb/fdb/internal/relation"
)

func TestRowHashOrderSensitivity(t *testing.T) {
	rows := []relation.Tuple{intTuple(1, 2), intTuple(3, 4), intTuple(5, 6)}
	swapped := []relation.Tuple{rows[2], rows[0], rows[1]}
	for _, ordered := range []bool{false, true} {
		a, err := hashTuples(rows, ordered)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hashTuples(swapped, ordered)
		if err != nil {
			t.Fatal(err)
		}
		if same := a == b; same == ordered {
			t.Errorf("ordered=%v: reordering the rows left the hash equal=%v", ordered, same)
		}
	}
	// Neither hash may confuse a different multiset of the same size.
	other, err := hashTuples([]relation.Tuple{rows[0], rows[1], intTuple(5, 7)}, false)
	if err != nil {
		t.Fatal(err)
	}
	if base, _ := hashTuples(rows, false); base == other {
		t.Error("multiset hash ignores a changed row")
	}
}

// The reference hash of a flat tuple must be the hash the client
// computes over the server's NDJSON line for it.
func TestEncodeRowMatchesWire(t *testing.T) {
	line, err := encodeRow(intTuple(7, -3, 12), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(line) != "[7,-3,12]" {
		t.Errorf("encoded row = %s", line)
	}
}
