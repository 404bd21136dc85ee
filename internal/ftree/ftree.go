// Package ftree implements factorisation trees (f-trees): rooted forests
// whose nodes are labelled by classes of attribute names or by aggregate
// attributes (Definition 2 and Section 3 of the paper).
//
// An f-tree is both the schema and the nesting structure of a factorised
// representation. Nodes carry dependency-token sets; two nodes are
// dependent iff their token sets intersect, and the path constraint
// (Proposition 1) requires dependent nodes to lie on a common root-to-leaf
// path. Restructuring operators (swap, merge, absorb, remove-leaf,
// aggregate) are defined here at the tree level; package fops lifts them
// to factorised data, re-using the partition decisions computed here so
// that tree and data stay structurally in sync.
package ftree

import (
	"fmt"
	"sort"
	"strings"
)

// TokenSet is a set of dependency tokens. Base relations contribute one
// token each; projections and aggregations mint fresh tokens to record the
// new dependencies they introduce (Section 3).
type TokenSet map[int]struct{}

// NewTokenSet returns a set holding the given tokens.
func NewTokenSet(toks ...int) TokenSet {
	s := make(TokenSet, len(toks))
	for _, t := range toks {
		s[t] = struct{}{}
	}
	return s
}

// Add inserts a token.
func (s TokenSet) Add(tok int) { s[tok] = struct{}{} }

// AddAll inserts every token of t.
func (s TokenSet) AddAll(t TokenSet) {
	for k := range t {
		s[k] = struct{}{}
	}
}

// Intersects reports whether the two sets share a token.
func (s TokenSet) Intersects(t TokenSet) bool {
	a, b := s, t
	if len(a) > len(b) {
		a, b = b, a
	}
	for k := range a {
		if _, ok := b[k]; ok {
			return true
		}
	}
	return false
}

// Clone returns a copy of the set.
func (s TokenSet) Clone() TokenSet {
	c := make(TokenSet, len(s))
	for k := range s {
		c[k] = struct{}{}
	}
	return c
}

// Sorted returns the tokens in increasing order.
func (s TokenSet) Sorted() []int {
	out := make([]int, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// AggField is one aggregation function application: Fn plus its argument
// attribute (empty for count).
type AggField struct {
	Fn  Fn
	Arg string
}

// String renders the field, e.g. "sum_price" or "count".
func (a AggField) String() string {
	if a.Arg == "" {
		return a.Fn.String()
	}
	return a.Fn.String() + "_" + a.Arg
}

// Agg labels an aggregate attribute F(X): one or more aggregation
// functions computed jointly (Section 3.2.4) over the original attribute
// set X that the aggregate replaced. Singletons of such a node are
// interpreted as pre-computed aggregates over X, not as plain values
// (Section 3.1).
type Agg struct {
	Fields []AggField
	Over   []string // sorted original (atomic) attributes covered
}

// Label renders the aggregate attribute, e.g. "sum_price(item,price)".
func (a *Agg) Label() string {
	fs := make([]string, len(a.Fields))
	for i, f := range a.Fields {
		fs[i] = f.String()
	}
	head := fs[0]
	if len(fs) > 1 {
		head = "(" + strings.Join(fs, ",") + ")"
	}
	return head + "(" + strings.Join(a.Over, ",") + ")"
}

// Covers reports whether attr is among the original attributes replaced by
// this aggregate.
func (a *Agg) Covers(attr string) bool {
	for _, x := range a.Over {
		if x == attr {
			return true
		}
	}
	return false
}

// Node is one f-tree node: either an atomic node labelled by a class of
// equal-valued attributes (Attrs non-empty, Agg nil), or an aggregate node
// (Agg non-nil, Attrs nil).
type Node struct {
	Attrs []string // equivalence class of attribute names
	Agg   *Agg     // aggregate attribute, nil for atomic nodes
	// Alias optionally renames an aggregate node to a query-level output
	// attribute (the paper's renaming operator, applied after the final
	// γ). Renaming is constant-time because names live in the f-tree, not
	// in singletons.
	Alias    string
	Deps     TokenSet
	Children []*Node
	Parent   *Node // nil for roots
}

// IsAgg reports whether the node is an aggregate attribute.
func (n *Node) IsAgg() bool { return n.Agg != nil }

// Label renders the node's attribute class or aggregate label; a renamed
// aggregate node shows its alias.
func (n *Node) Label() string {
	if n.IsAgg() {
		if n.Alias != "" {
			return n.Alias
		}
		return n.Agg.Label()
	}
	return strings.Join(n.Attrs, "=")
}

// HasAttr reports whether the node's class contains attr (atomic nodes
// only).
func (n *Node) HasAttr(attr string) bool {
	for _, a := range n.Attrs {
		if a == attr {
			return true
		}
	}
	return false
}

// IsRoot reports whether the node has no parent.
func (n *Node) IsRoot() bool { return n.Parent == nil }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// IsAncestorOf reports whether n is a strict ancestor of m.
func (n *Node) IsAncestorOf(m *Node) bool {
	for p := m.Parent; p != nil; p = p.Parent {
		if p == n {
			return true
		}
	}
	return false
}

// ChildIndex returns the position of child c under n, or -1.
func (n *Node) ChildIndex(c *Node) int {
	for i, x := range n.Children {
		if x == c {
			return i
		}
	}
	return -1
}

// Walk visits the subtree rooted at n in pre-order.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// SubtreeNodes returns the nodes of the subtree rooted at n in pre-order.
func (n *Node) SubtreeNodes() []*Node {
	var out []*Node
	n.Walk(func(m *Node) { out = append(out, m) })
	return out
}

// SubtreeAttrs returns all original attributes represented in the subtree:
// class members of atomic nodes plus the Over sets of aggregate nodes,
// sorted.
func (n *Node) SubtreeAttrs() []string {
	set := map[string]bool{}
	n.Walk(func(m *Node) {
		if m.IsAgg() {
			for _, a := range m.Agg.Over {
				set[a] = true
			}
		} else {
			for _, a := range m.Attrs {
				set[a] = true
			}
		}
	})
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// SubtreeDeps returns the union of dependency tokens in the subtree.
func (n *Node) SubtreeDeps() TokenSet {
	out := NewTokenSet()
	n.Walk(func(m *Node) { out.AddAll(m.Deps) })
	return out
}

// Forest is an f-tree: an ordered rooted forest. Child and root order is
// significant operationally (factorised data mirrors it position by
// position) but not semantically (products commute).
type Forest struct {
	Roots     []*Node
	nextToken int
}

// New returns an empty forest.
func New() *Forest { return &Forest{} }

// NewToken mints a fresh dependency token unique within this forest.
func (f *Forest) NewToken() int {
	t := f.nextToken
	f.nextToken++
	return t
}

// TokenBound returns an exclusive upper bound on the tokens minted so far.
func (f *Forest) TokenBound() int { return f.nextToken }

// ShiftTokens adds delta to every dependency token in the forest, making
// room to combine it with another forest's tokens (see fops.Product).
func (f *Forest) ShiftTokens(delta int) {
	for _, n := range f.Nodes() {
		shifted := NewTokenSet()
		for t := range n.Deps {
			shifted.Add(t + delta)
		}
		n.Deps = shifted
	}
	f.nextToken += delta
}

// Concat appends the roots of other to this forest. Callers are
// responsible for token disjointness (ShiftTokens) and must not reuse
// other afterwards.
func (f *Forest) Concat(other *Forest) {
	f.Roots = append(f.Roots, other.Roots...)
	if other.nextToken > f.nextToken {
		f.nextToken = other.nextToken
	}
}

// NewRelationPath appends a linear-path f-tree for a base relation with
// the given attributes (in the given order, top to bottom). All nodes of a
// base relation are mutually dependent, so they share one fresh token. It
// returns the root.
func (f *Forest) NewRelationPath(attrs ...string) *Node {
	if len(attrs) == 0 {
		panic("ftree: relation path needs at least one attribute")
	}
	tok := f.NewToken()
	var root, prev *Node
	for _, a := range attrs {
		n := &Node{Attrs: []string{a}, Deps: NewTokenSet(tok)}
		if prev == nil {
			root = n
		} else {
			prev.Children = append(prev.Children, n)
			n.Parent = prev
		}
		prev = n
	}
	f.Roots = append(f.Roots, root)
	return root
}

// Nodes returns all nodes in pre-order (roots left to right).
func (f *Forest) Nodes() []*Node {
	var out []*Node
	for _, r := range f.Roots {
		out = append(out, r.SubtreeNodes()...)
	}
	return out
}

// AttrNode returns the atomic node whose class contains attr, or nil.
func (f *Forest) AttrNode(attr string) *Node {
	for _, n := range f.Nodes() {
		if !n.IsAgg() && n.HasAttr(attr) {
			return n
		}
	}
	return nil
}

// AggNodes returns all aggregate nodes in pre-order.
func (f *Forest) AggNodes() []*Node {
	var out []*Node
	for _, n := range f.Nodes() {
		if n.IsAgg() {
			out = append(out, n)
		}
	}
	return out
}

// AtomicAttrs returns all attributes of atomic classes in the forest,
// sorted.
func (f *Forest) AtomicAttrs() []string {
	var out []string
	for _, n := range f.Nodes() {
		if !n.IsAgg() {
			out = append(out, n.Attrs...)
		}
	}
	sort.Strings(out)
	return out
}

// RootIndex returns the position of root r, or -1.
func (f *Forest) RootIndex(r *Node) int {
	for i, x := range f.Roots {
		if x == r {
			return i
		}
	}
	return -1
}

// Clone deep-copies the forest (token counter included) and returns the
// copy together with a node-correspondence map from original nodes to
// their clones.
func (f *Forest) Clone() (*Forest, map[*Node]*Node) {
	out := &Forest{nextToken: f.nextToken}
	corr := make(map[*Node]*Node)
	var cp func(n, parent *Node) *Node
	cp = func(n, parent *Node) *Node {
		m := &Node{
			Alias:  n.Alias,
			Deps:   n.Deps.Clone(),
			Parent: parent,
		}
		if n.IsAgg() {
			fields := make([]AggField, len(n.Agg.Fields))
			copy(fields, n.Agg.Fields)
			over := make([]string, len(n.Agg.Over))
			copy(over, n.Agg.Over)
			m.Agg = &Agg{Fields: fields, Over: over}
		} else {
			m.Attrs = make([]string, len(n.Attrs))
			copy(m.Attrs, n.Attrs)
		}
		corr[n] = m
		for _, c := range n.Children {
			m.Children = append(m.Children, cp(c, m))
		}
		return m
	}
	for _, r := range f.Roots {
		out.Roots = append(out.Roots, cp(r, nil))
	}
	return out, corr
}

// Validate checks structural invariants: unique attributes across atomic
// classes, consistent parent pointers, and the path constraint (dependent
// nodes share a root-to-leaf path).
func (f *Forest) Validate() error {
	seen := map[string]bool{}
	var nodes []*Node
	var walk func(n, parent *Node) error
	walk = func(n, parent *Node) error {
		if n.Parent != parent {
			return fmt.Errorf("ftree: node %s has inconsistent parent pointer", n.Label())
		}
		if n.IsAgg() == (len(n.Attrs) > 0) {
			return fmt.Errorf("ftree: node %s must be exactly one of atomic or aggregate", n.Label())
		}
		if !n.IsAgg() {
			for _, a := range n.Attrs {
				if seen[a] {
					return fmt.Errorf("ftree: attribute %q appears in two nodes", a)
				}
				seen[a] = true
			}
		}
		nodes = append(nodes, n)
		for _, c := range n.Children {
			if err := walk(c, n); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range f.Roots {
		if err := walk(r, nil); err != nil {
			return err
		}
	}
	// Path constraint: dependent nodes must be in an ancestor relation.
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			if a.Deps.Intersects(b.Deps) {
				if !(a.IsAncestorOf(b) || b.IsAncestorOf(a)) {
					return fmt.Errorf("ftree: path constraint violated between %s and %s", a.Label(), b.Label())
				}
			}
		}
	}
	return nil
}

// String renders the forest as an indented tree, one node per line.
func (f *Forest) String() string {
	var b strings.Builder
	var dump func(n *Node, depth int)
	dump = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Label())
		b.WriteByte('\n')
		for _, c := range n.Children {
			dump(c, depth+1)
		}
	}
	for _, r := range f.Roots {
		dump(r, 0)
	}
	return b.String()
}

// CanonicalKey returns a string that identifies the forest up to
// reordering of children and roots (products commute) and token renaming
// that preserves the intersection pattern. It is used as a visited-state
// key in plan search. Token sets are included verbatim; within one search
// all states descend from the same initial forest, so token identities are
// comparable.
func (f *Forest) CanonicalKey() string {
	var enc func(n *Node) string
	enc = func(n *Node) string {
		kids := make([]string, len(n.Children))
		for i, c := range n.Children {
			kids[i] = enc(c)
		}
		sort.Strings(kids)
		toks := n.Deps.Sorted()
		parts := make([]string, len(toks))
		for i, t := range toks {
			parts[i] = fmt.Sprint(t)
		}
		return n.Label() + "{" + strings.Join(parts, ",") + "}[" + strings.Join(kids, ";") + "]"
	}
	roots := make([]string, len(f.Roots))
	for i, r := range f.Roots {
		roots[i] = enc(r)
	}
	sort.Strings(roots)
	return strings.Join(roots, "|")
}
