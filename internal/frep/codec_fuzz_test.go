package frep

// FuzzCodecRoundTrip drives the view codec with arbitrary (but valid)
// factorised representations derived from the fuzz input: a small
// relation and f-tree shape are decoded from the bytes, built,
// serialised and read back. decode(encode(u)) must be structurally
// equal to u, still represent the input relation, and re-encode to the
// same bytes (the encoding is canonical).

import (
	"bytes"
	"testing"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// fuzzForest deterministically derives a relation and a linear-path
// f-tree from the input bytes. Returns nil when the input is too short
// to be interesting.
func fuzzForest(data []byte) (*relation.Relation, *ftree.Forest) {
	if len(data) < 4 {
		return nil, nil
	}
	nAttrs := 1 + int(data[0]%4)   // 1..4 columns
	nTuples := 1 + int(data[1]%24) // 1..24 rows
	attrs := make([]string, nAttrs)
	for i := range attrs {
		attrs[i] = string(rune('a' + i))
	}
	pos := 2
	next := func() byte {
		if pos >= len(data) {
			pos = 2
		}
		b := data[pos]
		pos++
		return b
	}
	tuples := make([]relation.Tuple, nTuples)
	for i := range tuples {
		t := make(relation.Tuple, nAttrs)
		for c := range t {
			b := next()
			// Mix value kinds so the codec's kind tags are exercised.
			switch b % 5 {
			case 0:
				t[c] = values.NewInt(int64(int8(b)))
			case 1:
				t[c] = values.NewFloat(float64(b) / 3)
			case 2:
				t[c] = values.NewString(string([]byte{'x', b}))
			case 3:
				t[c] = values.NewBool(b%2 == 0)
			default:
				t[c] = values.NewInt(int64(b) * 1000)
			}
		}
		tuples[i] = t
	}
	rel, err := relation.New("F", attrs, tuples)
	if err != nil {
		return nil, nil
	}
	f := ftree.New()
	f.NewRelationPath(attrs...)
	return rel, f
}

func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{1, 3, 7, 20, 40, 80, 160, 5})
	f.Add([]byte{3, 20, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 251, 252, 253})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{2, 10, 127, 128, 129, 200, 0, 0, 0, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, tree := fuzzForest(data)
		if rel == nil {
			t.Skip("input too short")
		}
		s := NewStore()
		roots, err := BuildStoreUnchecked(s, rel, tree)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteStoreTo(&buf, tree, s, roots); err != nil {
			t.Fatalf("encode: %v", err)
		}
		tree2, s2, roots2, err := ReadStoreFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(roots2) != len(roots) {
			t.Fatalf("decode: %d roots, want %d", len(roots2), len(roots))
		}
		for i := range roots2 {
			if !EqualStore(s2, roots2[i], s, roots[i]) {
				t.Fatalf("round trip differs at root %d", i)
			}
		}
		flat, err := FlattenStore(tree2, s2, roots2)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.EqualAsSets(flat, rel) {
			t.Fatal("decoded view no longer represents the input relation")
		}
		var again bytes.Buffer
		if err := WriteStoreTo(&again, tree2, s2, roots2); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatal("re-encoding a decoded view changed its bytes")
		}
	})
}
