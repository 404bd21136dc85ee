package frep

import (
	"strings"
	"testing"

	"github.com/factordb/fdb/internal/ftree"
)

func TestFormatPaperNotation(t *testing.T) {
	_, f, st, roots := buildPizzeria(t)
	s := Format(f, st, roots)
	for _, frag := range []string{"⟨pizza:Capricciosa⟩", "∪", "×", "⟨price:6⟩"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Format missing %q:\n%s", frag, s)
		}
	}
}

func TestFormatEmptyAndForest(t *testing.T) {
	f := ftree.New()
	f.NewRelationPath("a")
	f.NewRelationPath("b")
	st := NewStore()
	s := Format(f, st, []NodeID{EmptyNode, st.AddLeaf(ivs(7))})
	if !strings.Contains(s, "∅") {
		t.Errorf("empty union should render as ∅: %s", s)
	}
	if !strings.Contains(s, "⟨b:7⟩") {
		t.Errorf("singleton should render: %s", s)
	}
}

func TestComputeScalarErrors(t *testing.T) {
	// frep-level check via fops is covered there; here: flat schema for
	// aliased nodes.
	f := ftree.New()
	tok := f.NewToken()
	n := &ftree.Node{
		Agg:   &ftree.Agg{Fields: []ftree.AggField{{Fn: ftree.Count}}, Over: []string{"x"}},
		Alias: "n",
		Deps:  ftree.NewTokenSet(tok),
	}
	f.Roots = []*ftree.Node{n}
	cols := FlatSchema(f)
	if len(cols) != 1 || cols[0] != "n" {
		t.Errorf("aliased single-field node should use its alias: %v", cols)
	}
	n.Agg.Fields = append(n.Agg.Fields, ftree.AggField{Fn: ftree.Sum, Arg: "x"})
	cols = FlatSchema(f)
	if len(cols) != 2 || !strings.HasPrefix(cols[0], "n.") {
		t.Errorf("multi-field aliased node should use alias.field: %v", cols)
	}
}
