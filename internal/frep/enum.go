package frep

import (
	"fmt"

	"github.com/factordb/fdb/internal/ftree"
)

// OrderSpec names an attribute to enumerate by, with direction. Attr may
// be any name resolvable by ftree.ResolveAttr (atomic attribute, aggregate
// alias or aggregate label).
type OrderSpec struct {
	Attr string
	Desc bool
}

// slotSpec is the compiled part of one enumeration loop: which f-tree
// node it iterates, where its union comes from and in which direction it
// advances.
type slotSpec struct {
	node       *ftree.Node
	parentSlot int // index of the parent node's slot, or -1 for roots
	rootIdx    int // index into the roots slice when parentSlot == -1
	childIdx   int // position among the parent's children
	desc       bool
}

// colRef locates one output column: the slot producing it and, for
// multi-field aggregate nodes, the vector component.
type colRef struct {
	slotIdx  int
	fieldIdx int // -1: the value itself; ≥0: vector component
}

// enumPlan is the compiled loop structure of an enumeration: slot order,
// output columns and schema.
type enumPlan struct {
	slots  []slotSpec
	cols   []colRef
	schema []string
}

// planEnum compiles the slot (loop nesting) order for full enumeration:
// order attributes first, then the remaining nodes in DFS pre-order.
// Ancestors always precede descendants (guaranteed by Theorem 2's
// condition).
func planEnum(f *ftree.Forest, order []OrderSpec) (*enumPlan, error) {
	p := &enumPlan{}
	slotIdx := map[*ftree.Node]int{}
	addSlot := func(n *ftree.Node, desc bool) {
		if _, ok := slotIdx[n]; ok {
			return
		}
		slotIdx[n] = len(p.slots)
		p.slots = append(p.slots, slotSpec{node: n, desc: desc, parentSlot: -1})
	}
	if len(order) > 0 {
		attrs := make([]string, len(order))
		for i, o := range order {
			attrs[i] = o.Attr
		}
		if !f.SupportsOrder(attrs) {
			return nil, fmt.Errorf("frep: f-tree does not support constant-delay enumeration in order %v (Theorem 2)", attrs)
		}
		for _, o := range order {
			n := f.ResolveAttr(o.Attr)
			if n == nil {
				return nil, fmt.Errorf("frep: unknown order attribute %q", o.Attr)
			}
			addSlot(n, o.Desc)
		}
	}
	for _, n := range f.Nodes() {
		addSlot(n, false)
	}
	if err := p.wire(f, slotIdx, false); err != nil {
		return nil, err
	}
	// Output columns in DFS order (same as FlatSchema).
	for _, n := range f.Nodes() {
		p.addCols(n, slotIdx[n])
	}
	p.schema = FlatSchema(f)
	return p, nil
}

// wire fills in parent/child links and root indices for the planned
// slots. groupMode selects the error message for a slot whose parent has
// no earlier slot (impossible for full enumeration, a user error for
// grouping).
func (p *enumPlan) wire(f *ftree.Forest, slotIdx map[*ftree.Node]int, groupMode bool) error {
	rootIdx := map[*ftree.Node]int{}
	for i, r := range f.Roots {
		rootIdx[r] = i
	}
	for i := range p.slots {
		n := p.slots[i].node
		if n.Parent == nil {
			p.slots[i].rootIdx = rootIdx[n]
			continue
		}
		pi, ok := slotIdx[n.Parent]
		if !ok || pi >= i {
			if groupMode {
				return fmt.Errorf("frep: group attribute %s must come after its parent group attribute", n.Label())
			}
			return fmt.Errorf("frep: internal: slot for %s precedes its parent", n.Label())
		}
		p.slots[i].parentSlot = pi
		p.slots[i].childIdx = n.Parent.ChildIndex(n)
	}
	return nil
}

// addCols appends the output columns contributed by node n (at slot si).
func (p *enumPlan) addCols(n *ftree.Node, si int) {
	if n.IsAgg() && len(n.Agg.Fields) > 1 {
		for fi := range n.Agg.Fields {
			p.cols = append(p.cols, colRef{slotIdx: si, fieldIdx: fi})
		}
	} else {
		for range NodeColumns(n) {
			p.cols = append(p.cols, colRef{slotIdx: si, fieldIdx: -1})
		}
	}
}

// partSpec describes one maximal non-group subtree to aggregate: where
// it hangs, which fields its evaluator computes, and how those map back
// to the output fields.
type partSpec struct {
	node       *ftree.Node
	parentSlot int // slot index in the group enumerator; -1 for root parts
	rootIdx    int
	childIdx   int
	evFields   []ftree.AggField
	// fieldIdx[i] maps output field i to the part evaluator's field
	// index, or -1 when the argument is not in this part.
	fieldIdx []int
	// countIdx is the index of the count field in the part's evaluator,
	// or -1 when this part's multiplicity is not needed.
	countIdx int
}

// groupPlan is the compiled structure of grouped enumeration: the group
// slots (an enumPlan over group attributes only), the aggregation parts
// and the field-to-part carrier mapping.
type groupPlan struct {
	ep      *enumPlan
	fields  []ftree.AggField
	parts   []partSpec
	carrier []int // per field: part carrying its argument, or -1
	schema  []string
	nGroup  int
}

// planGroupEnum compiles a grouped enumeration: group attributes g (with
// optional order specs applied to them), aggregation fields over
// everything else.
func planGroupEnum(f *ftree.Forest, g []OrderSpec, fields []ftree.AggField) (*groupPlan, error) {
	gAttrs := make([]string, len(g))
	for i, o := range g {
		gAttrs[i] = o.Attr
	}
	if len(g) > 0 && !f.SupportsGrouping(gAttrs) {
		return nil, fmt.Errorf("frep: f-tree does not support constant-delay grouping by %v (Theorem 1)", gAttrs)
	}
	gp := &groupPlan{fields: fields}
	groupNodes := map[*ftree.Node]bool{}
	for _, a := range gAttrs {
		n := f.ResolveAttr(a)
		if n == nil {
			return nil, fmt.Errorf("frep: unknown group attribute %q", a)
		}
		groupNodes[n] = true
	}
	// Group slots in the requested order (deduplicated by node).
	ep := &enumPlan{}
	slotIdx := map[*ftree.Node]int{}
	for _, o := range g {
		n := f.ResolveAttr(o.Attr)
		if _, ok := slotIdx[n]; ok {
			continue
		}
		slotIdx[n] = len(ep.slots)
		ep.slots = append(ep.slots, slotSpec{node: n, desc: o.Desc, parentSlot: -1})
	}
	if err := ep.wire(f, slotIdx, true); err != nil {
		return nil, err
	}
	// Output columns: group node columns in slot order.
	for _, sp := range ep.slots {
		ep.addCols(sp.node, slotIdx[sp.node])
		gp.schema = append(gp.schema, NodeColumns(sp.node)...)
	}
	ep.schema = append([]string{}, gp.schema...)
	gp.ep = ep
	gp.nGroup = len(gp.schema)

	// Aggregation parts: non-group subtrees hanging below group nodes or
	// at roots. First collect the subtrees, then decide which need a
	// count: a part's multiplicity matters when the query counts tuples
	// or when a sum is carried by some other part.
	type partLoc struct {
		node       *ftree.Node
		parentSlot int
		rootIdx    int
		childIdx   int
	}
	var locs []partLoc
	for i, r := range f.Roots {
		if !groupNodes[r] {
			locs = append(locs, partLoc{node: r, parentSlot: -1, rootIdx: i})
		}
	}
	for si := range ep.slots {
		n := ep.slots[si].node
		for ci, c := range n.Children {
			if !groupNodes[c] {
				locs = append(locs, partLoc{node: c, parentSlot: si, childIdx: ci})
			}
		}
	}
	// Carrier part per field with an argument.
	carrierLoc := make([]int, len(fields))
	for i, fl := range fields {
		carrierLoc[i] = -1
		if !fl.Fn.HasArg() {
			continue
		}
		for li := range locs {
			if findCarrier(locs[li].node, fl.Arg) != nil {
				carrierLoc[i] = li
				break
			}
		}
		if carrierLoc[i] < 0 {
			// The argument may sit in a group node itself (aggregating a
			// grouping attribute is degenerate but legal SQL); not
			// supported by the on-the-fly path.
			return nil, fmt.Errorf("frep: aggregation argument %q not found below the group-by attributes", fl.Arg)
		}
	}
	// A part's multiplicity scales every field that needs counts and is
	// carried elsewhere (a field without an argument is carried nowhere).
	needsCount := func(li int) bool {
		for i, fl := range fields {
			if fl.Fn.NeedsCount() && carrierLoc[i] != li {
				return true
			}
		}
		return false
	}
	locToPart := make([]int, len(locs))
	for li, loc := range locs {
		locToPart[li] = -1
		var evFields []ftree.AggField
		countIdx := -1
		if needsCount(li) {
			countIdx = 0
			evFields = append(evFields, ftree.CountField())
		}
		for i, fl := range fields {
			if carrierLoc[i] == li && idxOfField(evFields, fl) < 0 {
				evFields = append(evFields, fl)
			}
		}
		if len(evFields) == 0 {
			continue // irrelevant part: neither counted nor carrying
		}
		// Compile once here to surface composition errors at plan time;
		// each enumerator instantiates its own evaluator (evaluators hold
		// mutable scratch).
		if _, err := NewEvaluator(loc.node, evFields); err != nil {
			return nil, err
		}
		part := partSpec{
			node:       loc.node,
			parentSlot: loc.parentSlot,
			rootIdx:    loc.rootIdx,
			childIdx:   loc.childIdx,
			evFields:   evFields,
			countIdx:   countIdx,
		}
		part.fieldIdx = make([]int, len(fields))
		for i, fl := range fields {
			part.fieldIdx[i] = -1
			if carrierLoc[i] == li {
				part.fieldIdx[i] = idxOfField(evFields, fl)
			}
		}
		locToPart[li] = len(gp.parts)
		gp.parts = append(gp.parts, part)
	}
	// Per field: which part carries the argument.
	gp.carrier = make([]int, len(fields))
	for i := range fields {
		gp.carrier[i] = -1
		if carrierLoc[i] >= 0 {
			gp.carrier[i] = locToPart[carrierLoc[i]]
		}
	}
	for _, fl := range fields {
		gp.schema = append(gp.schema, fl.String())
	}
	return gp, nil
}
