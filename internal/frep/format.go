package frep

import (
	"strings"

	"github.com/factordb/fdb/internal/ftree"
)

// Format renders a representation in the paper's notation, e.g.
//
//	⟨pizza:Hawaii⟩ × (⟨date:Friday⟩ × (⟨customer:Lucia⟩ ∪ ⟨customer:Pietro⟩)) × …
//
// Intended for examples and debugging on small data.
func Format(f *ftree.Forest, s *Store, roots []NodeID) string {
	parts := make([]string, len(roots))
	for i, r := range roots {
		parts[i] = formatUnion(f.Roots[i], s, r)
	}
	return strings.Join(parts, " × ")
}

func formatUnion(n *ftree.Node, s *Store, id NodeID) string {
	vals := s.Vals(id)
	if len(vals) == 0 {
		return "∅"
	}
	terms := make([]string, len(vals))
	for i, v := range vals {
		t := "⟨" + n.Label() + ":" + v.String() + "⟩"
		for j, k := range s.KidRow(id, i) {
			ks := formatUnion(n.Children[j], s, k)
			if s.Len(k) > 1 {
				ks = "(" + ks + ")"
			}
			t += " × " + ks
		}
		terms[i] = t
	}
	return strings.Join(terms, " ∪ ")
}
