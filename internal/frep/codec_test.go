package frep

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

func TestCodecRoundTripPizzeria(t *testing.T) {
	_, f, s, roots := buildPizzeria(t)
	var buf bytes.Buffer
	if err := WriteStoreTo(&buf, f, s, roots); err != nil {
		t.Fatal(err)
	}
	f2, s2, roots2, err := ReadStoreFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.CanonicalKey() != f2.CanonicalKey() {
		t.Errorf("f-tree changed:\n%s\nvs\n%s", f, f2)
	}
	for i := range roots {
		if !EqualStore(s, roots[i], s2, roots2[i]) {
			t.Errorf("representation changed at root %d", i)
		}
	}
}

func TestCodecRoundTripWithAggNodes(t *testing.T) {
	// Include aggregate nodes (vector values, aliases) in the round trip.
	f := ftree.New()
	tok := f.NewToken()
	cust := &ftree.Node{Attrs: []string{"customer"}, Deps: ftree.NewTokenSet(tok)}
	agg := &ftree.Node{
		Agg: &ftree.Agg{
			Fields: []ftree.AggField{{Fn: ftree.Sum, Arg: "price"}, {Fn: ftree.Count}},
			Over:   []string{"item", "price"},
		},
		Alias:  "revenue",
		Deps:   ftree.NewTokenSet(tok),
		Parent: cust,
	}
	cust.Children = []*ftree.Node{agg}
	f.Roots = []*ftree.Node{cust}
	s := NewStore()
	vec := func(sum, c int64) NodeID {
		return s.AddLeaf([]values.Value{values.NewVec([]values.Value{values.NewInt(sum), values.NewInt(c)})})
	}
	rep := s.Add([]values.Value{values.NewString("Lucia"), values.NewString("Mario")}, 1,
		[]NodeID{vec(9, 3), vec(22, 7)})
	var buf bytes.Buffer
	if err := WriteStoreTo(&buf, f, s, []NodeID{rep}); err != nil {
		t.Fatal(err)
	}
	f2, s2, roots2, err := ReadStoreFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n2 := f2.Roots[0].Children[0]
	if !n2.IsAgg() || n2.Alias != "revenue" || len(n2.Agg.Fields) != 2 {
		t.Errorf("aggregate node lost: %+v", n2)
	}
	if !EqualStore(s, rep, s2, roots2[0]) {
		t.Error("representation changed")
	}
}

func TestCodecValueKinds(t *testing.T) {
	f := ftree.New()
	f.NewRelationPath("x")
	s := NewStore()
	u := s.AddLeaf([]values.Value{
		values.NullValue(),
		values.NewBool(false),
		values.NewBool(true),
		values.NewInt(-42),
		values.NewFloat(2.5),
		values.NewString("héllo\x00world"),
	})
	var buf bytes.Buffer
	if err := WriteStoreTo(&buf, f, s, []NodeID{u}); err != nil {
		t.Fatal(err)
	}
	_, s2, roots, err := ReadStoreFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualStore(s, u, s2, roots[0]) {
		t.Errorf("values changed: %v vs %v", s.Vals(u), s2.Vals(roots[0]))
	}
}

func TestCodecErrors(t *testing.T) {
	if _, _, _, err := ReadStoreFrom(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, _, _, err := ReadStoreFrom(strings.NewReader("NOTFD\n rest")); err == nil {
		t.Error("bad magic should fail")
	}
	// Truncated stream.
	_, f, s, roots := buildPizzeria(t)
	var buf bytes.Buffer
	if err := WriteStoreTo(&buf, f, s, roots); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{7, buf.Len() / 2, buf.Len() - 1} {
		if _, _, _, err := ReadStoreFrom(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncated stream (%d bytes) should fail", cut)
		}
	}
	// A stream whose unions violate the representation invariants
	// (values not strictly ascending) must be rejected, not loaded.
	bad := NewStore()
	leafPath := ftree.New()
	leafPath.NewRelationPath("x")
	var unsorted bytes.Buffer
	if err := WriteStoreTo(&unsorted, leafPath, bad, []NodeID{bad.AddLeaf(ivs(2, 1))}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadStoreFrom(&unsorted); err == nil {
		t.Error("unsorted union should fail validation on load")
	}
	// Arity mismatch.
	if err := WriteStoreTo(&buf, f, s, roots[:0]); err == nil {
		t.Error("root count mismatch should fail")
	}
	// An aggregate node's function byte must name a storable field: the
	// composite Avg (byte 4) and numbers outside the table are rejected.
	for _, fn := range []ftree.Fn{ftree.Count, ftree.Avg, 9, 255} {
		af := ftree.New()
		af.Roots = []*ftree.Node{{
			Agg:  &ftree.Agg{Fields: []ftree.AggField{{Fn: fn, Arg: "x"}}, Over: []string{"x"}},
			Deps: ftree.NewTokenSet(af.NewToken()),
		}}
		as := NewStore()
		var ab bytes.Buffer
		if err := WriteStoreTo(&ab, af, as, []NodeID{as.AddLeaf(ivs(3))}); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := ReadStoreFrom(&ab)
		if ok := fn.Storable(); (err == nil) != ok {
			t.Errorf("aggregate function byte %d: decode error %v, storable %v", uint8(fn), err, ok)
		}
	}
}

func TestCodecRandomRoundTripProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		ts := make([]relation.Tuple, n)
		for i := range ts {
			ts[i] = relation.Tuple{
				values.NewInt(int64(rng.Intn(5))),
				values.NewFloat(float64(rng.Intn(9)) / 2),
				values.NewString(string(rune('a' + rng.Intn(4)))),
			}
		}
		rel := relation.MustNew("R", []string{"x", "y", "z"}, ts).Dedup()
		f := ftree.New()
		f.NewRelationPath("x", "y", "z")
		s := NewStore()
		roots, err := BuildStore(s, rel, f)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteStoreTo(&buf, f, s, roots); err != nil {
			return false
		}
		f2, s2, roots2, err := ReadStoreFrom(&buf)
		if err != nil {
			return false
		}
		if f.CanonicalKey() != f2.CanonicalKey() {
			return false
		}
		return EqualStore(s, roots[0], s2, roots2[0])
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
