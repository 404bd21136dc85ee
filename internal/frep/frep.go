// Package frep implements factorised representations of relations
// (Definition 1 of the paper) over f-trees: nested expressions built from
// unions, products and singletons, stored densely.
//
// The representation over an f-tree node t with children c₁…c_k is a
// union
//
//	U = ⋃_i ⟨t : v_i⟩ × U_{i,1} × ⋯ × U_{i,k}
//
// stored as one node of a Store: a window of the value slab holding the
// v_i sorted strictly ascending — the paper's global ordering invariant,
// which every operator preserves and which enables merge-by-intersection
// and ordered constant-delay enumeration — plus, per value, one child
// node id per child of t in the kid slab. A representation over a forest
// is one NodeID per root; the empty relation is EmptyNode.
//
// The package provides construction from a relation (BuildStore),
// flattening, cardinality via the paper's count algorithm, aggregate
// evaluation (Section 3.2), constant-delay enumerators with ranked
// direct access (Section 4) and zero-copy snapshots.
// Structural operators that rewrite representations together with their
// f-trees live in package fops.
package frep

import "github.com/factordb/fdb/internal/ftree"

// FlatSchema returns the attribute names of the flattened relation for the
// forest, in DFS pre-order: every member of each atomic class, and one
// column per aggregation field of each aggregate node (named by the node's
// alias when set and the node has a single field, otherwise by
// "label.field").
func FlatSchema(f *ftree.Forest) []string {
	var out []string
	for _, n := range f.Nodes() {
		out = append(out, NodeColumns(n)...)
	}
	return out
}

// NodeColumns returns the flattened column names contributed by one node.
func NodeColumns(n *ftree.Node) []string {
	if !n.IsAgg() {
		return n.Attrs
	}
	if len(n.Agg.Fields) == 1 {
		return []string{n.Label()}
	}
	out := make([]string, len(n.Agg.Fields))
	for i, fl := range n.Agg.Fields {
		base := n.Agg.Label()
		if n.Alias != "" {
			base = n.Alias
		}
		out[i] = base + "." + fl.String()
	}
	return out
}
