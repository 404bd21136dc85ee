// Package plan implements f-plans (sequences of f-plan operators) and the
// two optimisation strategies of Section 5: the polynomial-time greedy
// heuristic (Section 5.2) and the exhaustive minimum-cost search over the
// space of permissible operator sequences (Section 5.1) using Dijkstra's
// algorithm with the factorisation size bounds of package ftree as cost.
package plan

import (
	"context"
	"fmt"
	"strings"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/values"
)

// Op is one symbolic f-plan operator. Ops address nodes by attribute
// names so a plan can be executed against any factorised relation whose
// f-tree matches the planning-time tree, and simulated on bare f-trees
// for costing.
type Op interface {
	// Apply executes the operator on a factorised relation.
	Apply(fr *fops.ARel) error
	// ApplyTree simulates the operator's f-tree effect (for planning).
	ApplyTree(t *ftree.Forest) error
	// String renders the operator.
	String() string
}

// SwapOp is the restructuring operator χ: the named attribute's node is
// exchanged with its parent.
type SwapOp struct{ Attr string }

// Apply implements Op.
func (o SwapOp) Apply(fr *fops.ARel) error { return fr.Swap(o.Attr) }

// ApplyTree implements Op.
func (o SwapOp) ApplyTree(t *ftree.Forest) error {
	n := t.ResolveAttr(o.Attr)
	if n == nil {
		return fmt.Errorf("plan: swap: unknown attribute %q", o.Attr)
	}
	p, err := ftree.PlanSwap(n)
	if err != nil {
		return err
	}
	t.ApplySwap(p)
	return nil
}

func (o SwapOp) String() string { return "χ(" + o.Attr + ")" }

// MergeOp is the equality selection between sibling nodes.
type MergeOp struct{ A, B string }

// Apply implements Op.
func (o MergeOp) Apply(fr *fops.ARel) error { return fr.Merge(o.A, o.B) }

// ApplyTree implements Op.
func (o MergeOp) ApplyTree(t *ftree.Forest) error {
	x, y := t.ResolveAttr(o.A), t.ResolveAttr(o.B)
	if x == nil || y == nil {
		return fmt.Errorf("plan: merge: unknown attribute %q or %q", o.A, o.B)
	}
	if x == y {
		return nil
	}
	p, err := ftree.PlanMerge(t, x, y)
	if err != nil {
		return err
	}
	t.ApplyMerge(p)
	return nil
}

func (o MergeOp) String() string { return "merge(" + o.A + "=" + o.B + ")" }

// AbsorbOp is the equality selection between an ancestor and a descendant
// node.
type AbsorbOp struct{ Anc, Desc string }

// Apply implements Op.
func (o AbsorbOp) Apply(fr *fops.ARel) error { return fr.Absorb(o.Anc, o.Desc) }

// ApplyTree implements Op.
func (o AbsorbOp) ApplyTree(t *ftree.Forest) error {
	a, d := t.ResolveAttr(o.Anc), t.ResolveAttr(o.Desc)
	if a == nil || d == nil {
		return fmt.Errorf("plan: absorb: unknown attribute %q or %q", o.Anc, o.Desc)
	}
	if a == d {
		return nil
	}
	p, err := ftree.PlanAbsorb(a, d)
	if err != nil {
		return err
	}
	t.ApplyAbsorb(p)
	return nil
}

func (o AbsorbOp) String() string { return "absorb(" + o.Anc + "=" + o.Desc + ")" }

// SelectConstOp is the selection with a constant; it does not change the
// f-tree.
type SelectConstOp struct {
	Attr  string
	Cmp   fops.CmpOp
	Const values.Value
}

// Apply implements Op.
func (o SelectConstOp) Apply(fr *fops.ARel) error {
	return fr.SelectConst(o.Attr, o.Cmp, o.Const)
}

// ApplyTree implements Op.
func (o SelectConstOp) ApplyTree(t *ftree.Forest) error {
	if t.ResolveAttr(o.Attr) == nil {
		return fmt.Errorf("plan: select: unknown attribute %q", o.Attr)
	}
	return nil
}

func (o SelectConstOp) String() string {
	return fmt.Sprintf("σ(%s%s%s)", o.Attr, o.Cmp, o.Const)
}

// GammaOp is the aggregation operator γ_fields(U) over the subtree rooted
// at the node carrying Attr.
type GammaOp struct {
	Attr   string
	Fields []ftree.AggField
}

// Apply implements Op.
func (o GammaOp) Apply(fr *fops.ARel) error { return fr.Gamma(o.Attr, o.Fields) }

// ApplyTree implements Op.
func (o GammaOp) ApplyTree(t *ftree.Forest) error {
	n := t.ResolveAttr(o.Attr)
	if n == nil {
		return fmt.Errorf("plan: γ: unknown attribute %q", o.Attr)
	}
	if err := fops.CanGamma(n, o.Fields); err != nil {
		return err
	}
	p, err := ftree.PlanAgg(t, n, o.Fields)
	if err != nil {
		return err
	}
	t.ApplyAgg(p)
	return nil
}

func (o GammaOp) String() string {
	fs := make([]string, len(o.Fields))
	for i, f := range o.Fields {
		fs[i] = f.String()
	}
	return fmt.Sprintf("γ_{%s}(%s)", strings.Join(fs, ","), o.Attr)
}

// RemoveOp projects away a leaf attribute.
type RemoveOp struct{ Attr string }

// Apply implements Op.
func (o RemoveOp) Apply(fr *fops.ARel) error { return fr.RemoveLeaf(o.Attr) }

// ApplyTree implements Op.
func (o RemoveOp) ApplyTree(t *ftree.Forest) error {
	n := t.ResolveAttr(o.Attr)
	if n == nil {
		return fmt.Errorf("plan: remove: unknown attribute %q", o.Attr)
	}
	p, err := ftree.PlanRemoveLeaf(t, n)
	if err != nil {
		return err
	}
	t.ApplyRemoveLeaf(p)
	return nil
}

func (o RemoveOp) String() string { return "π- (" + o.Attr + ")" }

// RenameOp renames an attribute or aliases an aggregate node.
type RenameOp struct{ From, To string }

// Apply implements Op.
func (o RenameOp) Apply(fr *fops.ARel) error { return fr.Rename(o.From, o.To) }

// ApplyTree implements Op.
func (o RenameOp) ApplyTree(t *ftree.Forest) error {
	n := t.ResolveAttr(o.From)
	if n == nil {
		return fmt.Errorf("plan: rename: unknown attribute %q", o.From)
	}
	if n.IsAgg() {
		n.Alias = o.To
		return nil
	}
	for i, a := range n.Attrs {
		if a == o.From {
			n.Attrs[i] = o.To
			return nil
		}
	}
	return fmt.Errorf("plan: rename: attribute %q not in class", o.From)
}

func (o RenameOp) String() string { return "ρ(" + o.From + "→" + o.To + ")" }

// Plan is an f-plan: a sequence of operators.
type Plan struct {
	Ops []Op
	// Cost is the estimated cost under the size-bound metric, filled in
	// by the planners.
	Cost float64
}

// Execute applies the plan's operators to the factorised relation in
// order.
func (p *Plan) Execute(fr *fops.ARel) error {
	return p.ExecuteContext(context.Background(), fr)
}

// ExecuteContext is Execute with cancellation: the context is checked
// before each operator, so a long plan over a large factorisation stops
// promptly when the context fires. The representation is left in
// whatever intermediate state it had reached; callers discard it on
// error.
func (p *Plan) ExecuteContext(ctx context.Context, fr *fops.ARel) error {
	for _, op := range p.Ops {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := op.Apply(fr); err != nil {
			return fmt.Errorf("plan: executing %s: %w", op, err)
		}
	}
	return nil
}

// ExecuteParallel is ExecuteContext with an intra-query parallelism
// hint: the relation's operators may fan their occurrence loops across
// up to par segment workers (see fops.ARel.Par); par ≤ 1 executes
// exactly like ExecuteContext. The results are identical either way.
func (p *Plan) ExecuteParallel(ctx context.Context, fr *fops.ARel, par int) error {
	fr.Par = par
	return p.ExecuteContext(ctx, fr)
}

// Simulate applies the plan to a clone of the f-tree, returning the final
// tree and the summed size-bound cost of all intermediate trees.
func (p *Plan) Simulate(t *ftree.Forest, cat []ftree.CatalogRelation) (*ftree.Forest, float64, error) {
	sim, _ := t.Clone()
	cost := sim.SizeBound(cat)
	for _, op := range p.Ops {
		if err := op.ApplyTree(sim); err != nil {
			return nil, 0, fmt.Errorf("plan: simulating %s: %w", op, err)
		}
		cost += sim.SizeBound(cat)
	}
	return sim, cost, nil
}

// String renders the plan as a sequence of operators.
func (p *Plan) String() string {
	ss := make([]string, len(p.Ops))
	for i, op := range p.Ops {
		ss[i] = op.String()
	}
	return strings.Join(ss, " ; ")
}
