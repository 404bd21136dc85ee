package ftree

import (
	"fmt"
	"sort"
)

// SwapPlan records the decisions of a swap χ_{A,B} (Section 4.2): which of
// B's child subtrees depend on A (and therefore stay below A, the paper's
// T_AB) and which are independent of A (and move up with B, the paper's
// T_B). Package fops replays the same partition on factorised data.
type SwapPlan struct {
	A, B *Node
	// BIdx is B's position among A's children.
	BIdx int
	// DepIdx are positions in B.Children of subtrees dependent on A
	// (T_AB); IndepIdx the remaining positions (T_B). Both are ascending.
	DepIdx, IndepIdx []int
}

// PlanSwap prepares the swap of node b with its parent. It fails if b is a
// root.
func PlanSwap(b *Node) (*SwapPlan, error) {
	a := b.Parent
	if a == nil {
		return nil, fmt.Errorf("ftree: swap: node %s is a root", b.Label())
	}
	p := &SwapPlan{A: a, B: b, BIdx: a.ChildIndex(b)}
	for i, c := range b.Children {
		if c.SubtreeDeps().Intersects(a.Deps) {
			p.DepIdx = append(p.DepIdx, i)
		} else {
			p.IndepIdx = append(p.IndepIdx, i)
		}
	}
	return p, nil
}

// ApplySwap restructures the forest according to the plan: B takes A's
// place; A becomes B's first child, keeping its other children followed by
// the A-dependent children of B; the A-independent children of B stay with
// B.
func (f *Forest) ApplySwap(p *SwapPlan) {
	a, b := p.A, p.B
	// Detach b from a.
	aOther := make([]*Node, 0, len(a.Children)-1)
	for _, c := range a.Children {
		if c != b {
			aOther = append(aOther, c)
		}
	}
	dep := make([]*Node, 0, len(p.DepIdx))
	for _, i := range p.DepIdx {
		dep = append(dep, b.Children[i])
	}
	indep := make([]*Node, 0, len(p.IndepIdx))
	for _, i := range p.IndepIdx {
		indep = append(indep, b.Children[i])
	}
	// Replace a by b at a's position.
	if a.Parent == nil {
		f.Roots[f.RootIndex(a)] = b
		b.Parent = nil
	} else {
		gp := a.Parent
		gp.Children[gp.ChildIndex(a)] = b
		b.Parent = gp
	}
	// Rewire children.
	b.Children = append([]*Node{a}, indep...)
	for _, c := range indep {
		c.Parent = b
	}
	a.Parent = b
	a.Children = append(aOther, dep...)
	for _, c := range dep {
		c.Parent = a
	}
}

// MergePlan records a merge of two sibling atomic nodes for an equality
// selection A=B: the surviving node keeps both classes and the
// concatenated children.
type MergePlan struct {
	Parent *Node // nil when both are roots
	X, Y   *Node // nodes to merge; X survives
	XIdx   int   // position of X among siblings (or roots)
	YIdx   int   // position of Y among siblings (or roots)
}

// PlanMerge prepares merging sibling nodes x and y (for an equality
// selection between an attribute of x and one of y). Both must be atomic
// and share a parent (or both be roots).
func PlanMerge(f *Forest, x, y *Node) (*MergePlan, error) {
	if x == y {
		return nil, fmt.Errorf("ftree: merge: identical nodes")
	}
	if x.IsAgg() || y.IsAgg() {
		return nil, fmt.Errorf("ftree: merge: aggregate nodes cannot be merged")
	}
	if x.Parent != y.Parent {
		return nil, fmt.Errorf("ftree: merge: %s and %s are not siblings", x.Label(), y.Label())
	}
	p := &MergePlan{Parent: x.Parent, X: x, Y: y}
	if x.Parent == nil {
		p.XIdx, p.YIdx = f.RootIndex(x), f.RootIndex(y)
	} else {
		p.XIdx, p.YIdx = x.Parent.ChildIndex(x), x.Parent.ChildIndex(y)
	}
	if p.XIdx < 0 || p.YIdx < 0 {
		return nil, fmt.Errorf("ftree: merge: sibling positions not found")
	}
	return p, nil
}

// ApplyMerge merges y into x: x's class gains y's attributes, x's
// dependency set absorbs y's, y's children append to x's, and y is removed
// from the forest.
func (f *Forest) ApplyMerge(p *MergePlan) {
	x, y := p.X, p.Y
	x.Attrs = append(x.Attrs, y.Attrs...)
	x.Deps.AddAll(y.Deps)
	for _, c := range y.Children {
		c.Parent = x
	}
	x.Children = append(x.Children, y.Children...)
	if p.Parent == nil {
		f.Roots = removeNode(f.Roots, y)
	} else {
		p.Parent.Children = removeNode(p.Parent.Children, y)
	}
}

// AbsorbPlan records absorbing a descendant node into an ancestor for an
// equality selection between their attributes.
type AbsorbPlan struct {
	Anc, Desc *Node
	// Path holds the child indices from Anc down to Desc (Path[0] is the
	// index under Anc).
	Path []int
}

// PlanAbsorb prepares absorbing node desc into its strict ancestor anc.
// Both must be atomic.
func PlanAbsorb(anc, desc *Node) (*AbsorbPlan, error) {
	if anc.IsAgg() || desc.IsAgg() {
		return nil, fmt.Errorf("ftree: absorb: aggregate nodes cannot be absorbed")
	}
	if !anc.IsAncestorOf(desc) {
		return nil, fmt.Errorf("ftree: absorb: %s is not an ancestor of %s", anc.Label(), desc.Label())
	}
	var rev []int
	for n := desc; n != anc; n = n.Parent {
		rev = append(rev, n.Parent.ChildIndex(n))
	}
	path := make([]int, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return &AbsorbPlan{Anc: anc, Desc: desc, Path: path}, nil
}

// ApplyAbsorb merges desc's class into anc's and splices desc's children
// into desc's parent at desc's position.
func (f *Forest) ApplyAbsorb(p *AbsorbPlan) {
	anc, desc := p.Anc, p.Desc
	anc.Attrs = append(anc.Attrs, desc.Attrs...)
	anc.Deps.AddAll(desc.Deps)
	par := desc.Parent
	idx := par.ChildIndex(desc)
	for _, c := range desc.Children {
		c.Parent = par
	}
	kids := make([]*Node, 0, len(par.Children)-1+len(desc.Children))
	kids = append(kids, par.Children[:idx]...)
	kids = append(kids, desc.Children...)
	kids = append(kids, par.Children[idx+1:]...)
	par.Children = kids
}

// RemoveLeafPlan records removal of a leaf node (projection).
type RemoveLeafPlan struct {
	Node *Node
	// Idx is the node's position among its parent's children or among the
	// roots.
	Idx int
}

// PlanRemoveLeaf prepares removing leaf node n from the forest.
func PlanRemoveLeaf(f *Forest, n *Node) (*RemoveLeafPlan, error) {
	if !n.IsLeaf() {
		return nil, fmt.Errorf("ftree: remove: node %s is not a leaf", n.Label())
	}
	p := &RemoveLeafPlan{Node: n}
	if n.Parent == nil {
		p.Idx = f.RootIndex(n)
	} else {
		p.Idx = n.Parent.ChildIndex(n)
	}
	if p.Idx < 0 {
		return nil, fmt.Errorf("ftree: remove: node position not found")
	}
	return p, nil
}

// ApplyRemoveLeaf detaches the leaf and updates dependencies: every
// remaining node that was dependent on the removed node becomes mutually
// dependent with the others (they all gain one fresh token), matching the
// projection rule of Section 2.1.
func (f *Forest) ApplyRemoveLeaf(p *RemoveLeafPlan) {
	n := p.Node
	if n.Parent == nil {
		f.Roots = removeNode(f.Roots, n)
	} else {
		n.Parent.Children = removeNode(n.Parent.Children, n)
	}
	var affected []*Node
	for _, m := range f.Nodes() {
		if m.Deps.Intersects(n.Deps) {
			affected = append(affected, m)
		}
	}
	if len(affected) > 1 {
		tok := f.NewToken()
		for _, m := range affected {
			m.Deps.Add(tok)
		}
	}
}

// AggPlan records replacing the subtree rooted at U by an aggregate node
// F(U) — the tree-level effect of the aggregation operator γ_F(U)
// (Section 3).
type AggPlan struct {
	Subtree *Node
	Fields  []AggField
	// Idx is the subtree root's position among its parent's children or
	// among the roots.
	Idx int
	// NewNode is filled in by ApplyAgg.
	NewNode *Node
}

// PlanAgg prepares aggregating the subtree rooted at u with the given
// aggregation fields. Fields with an argument attribute must find that
// attribute inside the subtree (either atomic or covered by a compatible
// inner aggregate, per the composition rules of Proposition 2).
func PlanAgg(f *Forest, u *Node, fields []AggField) (*AggPlan, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("ftree: aggregate: no aggregation fields")
	}
	attrs := u.SubtreeAttrs()
	has := func(a string) bool {
		i := sort.SearchStrings(attrs, a)
		return i < len(attrs) && attrs[i] == a
	}
	for _, fl := range fields {
		if !fl.Fn.Storable() {
			return nil, fmt.Errorf("ftree: aggregate: %s is not a storable field", fl.Fn)
		}
		if fl.Fn.HasArg() && fl.Arg == "" {
			return nil, fmt.Errorf("ftree: aggregate: %s needs an argument attribute", fl.Fn)
		}
		if fl.Arg != "" && !has(fl.Arg) {
			return nil, fmt.Errorf("ftree: aggregate: attribute %q not in subtree %s", fl.Arg, u.Label())
		}
	}
	p := &AggPlan{Subtree: u, Fields: fields}
	if u.Parent == nil {
		p.Idx = f.RootIndex(u)
	} else {
		p.Idx = u.Parent.ChildIndex(u)
	}
	if p.Idx < 0 {
		return nil, fmt.Errorf("ftree: aggregate: subtree position not found")
	}
	return p, nil
}

// ApplyAgg replaces the subtree by a new aggregate node. The new node
// keeps the subtree's dependency tokens (so anything dependent on the
// replaced attributes becomes dependent on F(U), as required by
// Section 3), and all outside nodes that depended on the subtree
// additionally become mutually dependent via a fresh token shared with the
// new node.
func (f *Forest) ApplyAgg(p *AggPlan) {
	u := p.Subtree
	deps := u.SubtreeDeps()
	over := u.SubtreeAttrs()
	nn := &Node{
		Agg:    &Agg{Fields: p.Fields, Over: over},
		Deps:   deps,
		Parent: u.Parent,
	}
	if u.Parent == nil {
		f.Roots[p.Idx] = nn
	} else {
		u.Parent.Children[p.Idx] = nn
	}
	// Fresh mutual-dependency token for outside nodes dependent on U.
	var affected []*Node
	for _, m := range f.Nodes() {
		if m != nn && m.Deps.Intersects(deps) {
			affected = append(affected, m)
		}
	}
	if len(affected) > 0 {
		tok := f.NewToken()
		nn.Deps.Add(tok)
		for _, m := range affected {
			m.Deps.Add(tok)
		}
	}
	p.NewNode = nn
}

func removeNode(ns []*Node, n *Node) []*Node {
	out := ns[:0]
	for _, x := range ns {
		if x != n {
			out = append(out, x)
		}
	}
	return out
}
