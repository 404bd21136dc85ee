package plan

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
)

// Planner computes f-plans for queries over a given input f-tree.
type Planner struct {
	// Catalog provides relation sizes for the size-bound cost metric.
	Catalog []ftree.CatalogRelation
	// PartialAgg enables eager partial aggregation (step 2 of the greedy
	// heuristic) before restructuring; disabling it is the "lazy
	// aggregation" ablation, which aggregates only after restructuring.
	PartialAgg bool
	// Exhaustive switches to the Dijkstra search of Section 5.1;
	// otherwise the greedy heuristic of Section 5.2 is used.
	Exhaustive bool
	// MaxStates caps the exhaustive search; beyond it Plan falls back to
	// the greedy heuristic. 0 means a default of 50000.
	MaxStates int
	// Ctx, when non-nil, is checked between optimisation steps so long
	// searches honour cancellation and deadlines; Plan returns the
	// context's error when it fires.
	Ctx context.Context
}

// ctxErr reports the planner context's error, if a context is set and it
// has fired.
func (p *Planner) ctxErr() error {
	if p.Ctx != nil {
		return p.Ctx.Err()
	}
	return nil
}

// PartialFields restricts the required fields to a subtree with the given
// attribute set, following the decomposition rules of Proposition 2: a
// field whose argument lies inside stays; otherwise a field that needs
// counts contributes the subtree's count and any other contributes
// nothing. The empty result defaults to a bare count so the subtree
// still collapses.
func PartialFields(required []ftree.AggField, subtreeAttrs map[string]bool) []ftree.AggField {
	var out []ftree.AggField
	add := func(f ftree.AggField) {
		if !slices.Contains(out, f) {
			out = append(out, f)
		}
	}
	for _, f := range required {
		switch {
		case f.Fn.HasArg() && subtreeAttrs[f.Arg]:
			add(f)
		case f.Fn.NeedsCount():
			add(ftree.CountField())
		}
	}
	if len(out) == 0 {
		out = []ftree.AggField{ftree.CountField()}
	}
	return out
}

// GroupOutputOrder returns the lexicographic base order of a grouped
// query's output: the attribute sequence the engine sorts grouped rows
// by ascending before ORDER BY applies as a stable sort on top. The
// distributed coordinator relies on this to stitch shard streams back
// into serial output order.
func GroupOutputOrder(q *query.Query) []string { return groupAttrsOrderFirst(q) }

// groupAttrsOrderFirst returns the group-by attributes with those also in
// the order-by list first (in list order).
func groupAttrsOrderFirst(q *query.Query) []string {
	inG := map[string]bool{}
	for _, g := range q.GroupBy {
		inG[g] = true
	}
	var out []string
	taken := map[string]bool{}
	for _, o := range q.OrderBy {
		if inG[o.Attr] && !taken[o.Attr] {
			out = append(out, o.Attr)
			taken[o.Attr] = true
		}
	}
	for _, g := range q.GroupBy {
		if !taken[g] {
			out = append(out, g)
			taken[g] = true
		}
	}
	return out
}

// attrOf returns a name that resolves back to the node: the first class
// member for atomic nodes, the alias or label for aggregate nodes.
func attrOf(n *ftree.Node) string {
	if n.IsAgg() {
		if n.Alias != "" {
			return n.Alias
		}
		return n.Agg.Label()
	}
	return n.Attrs[0]
}

// AggregateOrder decides whether q's ORDER BY over aggregate outputs can
// be served in the factorised domain (Section 4, Example 1 scenario 2):
// by one aggregate node whose fields put the ordered aggregates first, so
// that its vector order is their order, moved by χ to where the order
// needs it. That holds when the ordered aggregates are storable,
// contiguous in the ORDER BY list with one direction, and lower to the
// node's full field list, and t has exactly one maximal non-group
// subtree. It returns that subtree's root u, the node's fields, the name
// the node carries once planned (the sole aggregate's output name, else
// its label), and the ORDER BY list with each aggregate replaced by that
// name. u is nil when the rule does not hold.
//
// Both planners end with the γ/ρ/χ steps this implies; the cursor asks
// again on the planned tree, where the node is the only non-group node
// wherever χ moved it, and gets the same answer.
func AggregateOrder(q *query.Query, t *ftree.Forest) (u *ftree.Node, fields []ftree.AggField, name string, order []string) {
	inG := func(a string) bool { return slices.Contains(q.GroupBy, a) }
	var ordered []query.Aggregate
	first := -1
	for i, o := range q.OrderBy {
		if inG(o.Attr) {
			continue
		}
		if first < 0 {
			first = i
		}
		k := slices.IndexFunc(q.Aggregates, func(a query.Aggregate) bool { return a.OutName() == o.Attr })
		if k < 0 || !q.Aggregates[k].Fn.Storable() || i != first+len(ordered) || o.Desc != q.OrderBy[first].Desc {
			return nil, nil, "", nil
		}
		ordered = append(ordered, q.Aggregates[k])
	}
	if len(ordered) == 0 || len(q.GroupBy) == 0 {
		return nil, nil, "", nil
	}
	all := slices.Clip(ordered)
	for _, a := range q.Aggregates {
		if !slices.Contains(ordered, a) {
			all = append(all, a)
		}
	}
	own, err := query.Lower(ordered)
	if err != nil {
		return nil, nil, "", nil
	}
	if full, err := query.Lower(all); err != nil || len(full.Fields()) != len(own.Fields()) {
		return nil, nil, "", nil
	}
	// Group nodes form the top of a grouped tree (Theorem 1), so a
	// maximal non-group subtree is rooted where a non-group node is a
	// root or hangs below a group node.
	isGroup := func(n *ftree.Node) bool { return !n.IsAgg() && slices.ContainsFunc(n.Attrs, inG) }
	for _, n := range t.Nodes() {
		if !isGroup(n) && (n.Parent == nil || isGroup(n.Parent)) {
			if u != nil {
				return nil, nil, "", nil
			}
			u = n
		}
	}
	if u == nil {
		return nil, nil, "", nil
	}
	fields = own.Fields()
	// The label γ_fields(u) gives the node, or u's own when u is that node
	// already; on the planned tree χ may have put group nodes below it.
	name = (&ftree.Agg{Fields: fields, Over: u.SubtreeAttrs()}).Label()
	if u.IsAgg() && slices.Equal(u.Agg.Fields, fields) && !slices.ContainsFunc(u.Children, func(c *ftree.Node) bool { return !isGroup(c) }) {
		name = u.Agg.Label()
	}
	if len(q.Aggregates) == 1 {
		name = q.Aggregates[0].OutName()
	}
	for _, o := range q.OrderBy {
		if inG(o.Attr) {
			order = append(order, o.Attr)
		} else {
			order = append(order, name)
		}
	}
	return u, fields, name, order
}

// Plan computes an f-plan implementing the query's selections,
// aggregation (as partial γ operators plus restructuring) and
// group/order restructuring over the input f-tree, including the γ/ρ/χ
// steps of an ORDER BY over aggregate outputs (AggregateOrder). Constant
// selections come first; the engine applies HAVING and limits while
// enumerating.
func (p *Planner) Plan(t *ftree.Forest, q *query.Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	low, err := query.Lower(q.Aggregates)
	if err != nil {
		return nil, err
	}
	if p.Exhaustive && q.IsAggregate() {
		pl, err := p.planExhaustive(t, q, low.Fields())
		if err == nil {
			return pl, nil
		}
		// Fall back to greedy on search-space overflow.
		if err != errSearchSpace {
			return nil, err
		}
	}
	return p.planGreedy(t, q, low.Fields())
}

type greedyState struct {
	p       *Planner
	sim     *ftree.Forest
	q       *query.Query
	ops     []Op
	cost    float64
	pending []query.Equality
	group   []string
	order   []string // order attributes restructured pre-finalisation
	req     []ftree.AggField
}

func (p *Planner) planGreedy(t *ftree.Forest, q *query.Query, req []ftree.AggField) (*Plan, error) {
	sim, _ := t.Clone()
	st := &greedyState{p: p, sim: sim, q: q, req: req}
	st.cost = sim.SizeBound(p.Catalog)
	if q.IsAggregate() {
		// Place group attributes in order-by-first order so that the
		// grouping (step 4) and ordering (step 5) placements agree —
		// Theorem 1 does not care about the order within G, Theorem 2
		// does.
		st.group = groupAttrsOrderFirst(q)
		groupSet := map[string]bool{}
		for _, g := range q.GroupBy {
			groupSet[g] = true
		}
		for _, o := range q.OrderBy {
			if groupSet[o.Attr] {
				st.order = append(st.order, o.Attr)
			}
		}
	} else {
		for _, o := range q.OrderBy {
			st.order = append(st.order, o.Attr)
		}
	}
	for _, f := range q.Filters {
		if err := st.emit(SelectConstOp{Attr: f.Attr, Cmp: f.Op, Const: f.Const}); err != nil {
			return nil, err
		}
	}
	st.pending = append(st.pending, q.Equalities...)

	for iter := 0; ; iter++ {
		if iter > 10000 {
			return nil, fmt.Errorf("plan: greedy did not converge on %s", q)
		}
		if err := p.ctxErr(); err != nil {
			return nil, err
		}
		progressed, err := st.step()
		if err != nil {
			return nil, err
		}
		if !progressed {
			break
		}
	}
	finish := st.orderByAggregate
	if !st.q.IsAggregate() {
		finish = st.projectAndOrder
	}
	if err := finish(); err != nil {
		return nil, err
	}
	return &Plan{Ops: st.ops, Cost: st.cost}, nil
}

func (st *greedyState) emit(op Op) error {
	if err := op.ApplyTree(st.sim); err != nil {
		return err
	}
	st.ops = append(st.ops, op)
	st.cost += st.sim.SizeBound(st.p.Catalog)
	return nil
}

// step performs one greedy decision (Section 5.2 steps 1–5); it returns
// false when no step applies.
func (st *greedyState) step() (bool, error) {
	// Step 1: permissible selection operators, preferring the
	// highest-placed nodes.
	if done, err := st.trySelection(); done || err != nil {
		return done, err
	}
	// Step 2: permissible aggregation with maximal subtree (eager mode).
	if st.q.IsAggregate() && st.p.PartialAgg {
		if done, err := st.tryAggregate(); done || err != nil {
			return done, err
		}
	}
	// Step 3: restructure for a pending equality.
	if len(st.pending) > 0 {
		return true, st.restructureForEquality()
	}
	// Step 4: push group-by attributes up.
	if st.q.IsAggregate() {
		if v := st.sim.GroupingViolation(st.group); v != nil {
			return true, st.emit(SwapOp{Attr: attrOf(v)})
		}
	}
	// Lazy mode: aggregate only after all restructuring.
	if st.q.IsAggregate() && !st.p.PartialAgg {
		if done, err := st.tryAggregate(); done || err != nil {
			return done, err
		}
	}
	// Step 5: push order attributes into position.
	if len(st.order) > 0 {
		if v := st.sim.OrderViolation(st.order); v != nil {
			return true, st.emit(SwapOp{Attr: attrOf(v)})
		}
	}
	return false, nil
}

// trySelection resolves one pending equality via merge or absorb if the
// nodes are already in position; equalities within one class are dropped.
func (st *greedyState) trySelection() (bool, error) {
	type cand struct {
		idx   int
		op    Op
		depth int
	}
	var best *cand
	for i, e := range st.pending {
		na := st.sim.ResolveAttr(e.A)
		nb := st.sim.ResolveAttr(e.B)
		if na == nil || nb == nil {
			return false, fmt.Errorf("plan: equality %s=%s references unknown attribute", e.A, e.B)
		}
		if na == nb {
			st.pending = append(st.pending[:i], st.pending[i+1:]...)
			return true, nil
		}
		var op Op
		switch {
		case na.Parent == nb.Parent:
			op = MergeOp{A: e.A, B: e.B}
		case na.IsAncestorOf(nb):
			op = AbsorbOp{Anc: e.A, Desc: e.B}
		case nb.IsAncestorOf(na):
			op = AbsorbOp{Anc: e.B, Desc: e.A}
		default:
			continue
		}
		d := depth(na)
		if dd := depth(nb); dd < d {
			d = dd
		}
		if best == nil || d < best.depth {
			best = &cand{idx: i, op: op, depth: d}
		}
	}
	if best == nil {
		return false, nil
	}
	st.pending = append(st.pending[:best.idx], st.pending[best.idx+1:]...)
	return true, st.emit(best.op)
}

func depth(n *ftree.Node) int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// tryAggregate finds a maximal permissible non-noop aggregation subtree
// and emits γ over it.
func (st *greedyState) tryAggregate() (bool, error) {
	forbidden := map[string]bool{}
	for _, g := range st.group {
		forbidden[g] = true
	}
	for _, e := range st.pending {
		forbidden[e.A] = true
		forbidden[e.B] = true
	}
	qualifies := func(n *ftree.Node) bool {
		attrs := n.SubtreeAttrs()
		for _, a := range attrs {
			if forbidden[a] {
				return false
			}
		}
		// Group nodes themselves (their classes) must not be inside U.
		ok := true
		n.Walk(func(m *ftree.Node) {
			if !m.IsAgg() {
				for _, a := range m.Attrs {
					if forbidden[a] {
						ok = false
					}
				}
			}
		})
		if !ok {
			return false
		}
		sub := map[string]bool{}
		for _, a := range attrs {
			sub[a] = true
		}
		fields := PartialFields(st.req, sub)
		if n.IsLeaf() && n.IsAgg() && fieldsSuperset(n.Agg.Fields, fields) {
			return false // no-op
		}
		return fops.CanGamma(n, fields) == nil
	}
	var target *ftree.Node
	for _, n := range st.sim.Nodes() {
		if qualifies(n) && (n.Parent == nil || !qualifies(n.Parent)) {
			target = n
			break
		}
	}
	if target == nil {
		return false, nil
	}
	sub := map[string]bool{}
	for _, a := range target.SubtreeAttrs() {
		sub[a] = true
	}
	fields := PartialFields(st.req, sub)
	return true, st.emit(GammaOp{Attr: attrOf(target), Fields: fields})
}

func fieldsSuperset(have, want []ftree.AggField) bool {
	set := map[ftree.AggField]bool{}
	for _, f := range have {
		set[f] = true
	}
	for _, f := range want {
		if !set[f] {
			return false
		}
	}
	return true
}

// restructureForEquality picks the cheapest of pushing up A, B, or both
// alternately until the nodes of some pending equality are siblings or in
// an ancestor relation (step 3 of the heuristic).
func (st *greedyState) restructureForEquality() error {
	e := st.pending[0]
	type option struct {
		ops  []Op
		cost float64
	}
	var opts []option
	for _, mode := range []int{0, 1, 2} { // 0: push A, 1: push B, 2: alternate
		sim, _ := st.sim.Clone()
		var ops []Op
		cost := 0.0
		turn := 0
		ok := true
		for i := 0; i < 100; i++ {
			na, nb := sim.ResolveAttr(e.A), sim.ResolveAttr(e.B)
			if na == nil || nb == nil {
				ok = false
				break
			}
			if related(na, nb) {
				break
			}
			var target *ftree.Node
			switch mode {
			case 0:
				target = pickNonRoot(na, nb)
			case 1:
				target = pickNonRoot(nb, na)
			default:
				if turn%2 == 0 {
					target = pickNonRoot(na, nb)
				} else {
					target = pickNonRoot(nb, na)
				}
				turn++
			}
			if target == nil {
				ok = false
				break
			}
			op := SwapOp{Attr: attrOf(target)}
			if err := op.ApplyTree(sim); err != nil {
				ok = false
				break
			}
			ops = append(ops, op)
			cost += sim.SizeBound(st.p.Catalog)
		}
		if ok {
			na, nb := sim.ResolveAttr(e.A), sim.ResolveAttr(e.B)
			if na != nil && nb != nil && related(na, nb) {
				opts = append(opts, option{ops: ops, cost: cost})
			}
		}
	}
	if len(opts) == 0 {
		return fmt.Errorf("plan: cannot restructure for %s=%s", e.A, e.B)
	}
	sort.Slice(opts, func(i, j int) bool { return opts[i].cost < opts[j].cost })
	for _, op := range opts[0].ops {
		if err := st.emit(op); err != nil {
			return err
		}
	}
	return nil
}

// related reports whether merge or absorb applies to the two nodes.
func related(a, b *ftree.Node) bool {
	return a.Parent == b.Parent || a.IsAncestorOf(b) || b.IsAncestorOf(a)
}

// pickNonRoot returns the preferred node to push up: pref if it has a
// parent, else alt if it has one, else nil.
func pickNonRoot(pref, alt *ftree.Node) *ftree.Node {
	if pref.Parent != nil {
		return pref
	}
	if alt.Parent != nil {
		return alt
	}
	return nil
}

// projectAndOrder implements projection for SPJ queries (sink each
// non-projected attribute to a leaf, then remove it) followed by the
// order restructuring loop.
func (st *greedyState) projectAndOrder() error {
	if len(st.q.Projection) > 0 {
		keep := map[string]bool{}
		for _, a := range st.q.Projection {
			keep[a] = true
		}
		for {
			var victim *ftree.Node
			for _, n := range st.sim.Nodes() {
				if n.IsAgg() {
					continue
				}
				needed := false
				for _, a := range n.Attrs {
					if keep[a] {
						needed = true
					}
				}
				if !needed {
					victim = n
					break
				}
			}
			if victim == nil {
				break
			}
			// Sink to a leaf, then remove.
			for i := 0; !victim.IsLeaf(); i++ {
				if i > 100 {
					return fmt.Errorf("plan: projection sink did not converge")
				}
				if err := st.emit(SwapOp{Attr: attrOf(victim.Children[0])}); err != nil {
					return err
				}
			}
			if err := st.emit(RemoveOp{Attr: attrOf(victim)}); err != nil {
				return err
			}
		}
	}
	return st.placeOrder(st.order)
}

// orderByAggregate is both planners' tail for an ORDER BY over aggregate
// outputs that AggregateOrder serves: γ into one node with the ordered
// fields first (unless it is that node already), ρ to the sole
// aggregate's output name, and χ until the order holds.
func (st *greedyState) orderByAggregate() error {
	u, fields, name, order := AggregateOrder(st.q, st.sim)
	if u == nil {
		return nil
	}
	if !(u.IsLeaf() && u.IsAgg() && slices.Equal(u.Agg.Fields, fields)) {
		if err := st.emit(GammaOp{Attr: attrOf(u), Fields: fields}); err != nil {
			return err
		}
		u, _, _, _ = AggregateOrder(st.q, st.sim) // the node γ left
	}
	if label := u.Agg.Label(); label != name {
		if err := st.emit(RenameOp{From: label, To: name}); err != nil {
			return err
		}
	}
	return st.placeOrder(order)
}

// placeOrder is step 5's loop: χ until the tree supports the order
// (Theorem 2).
func (st *greedyState) placeOrder(order []string) error {
	for i := 0; ; i++ {
		if i > 1000 {
			return fmt.Errorf("plan: order restructuring did not converge")
		}
		v := st.sim.OrderViolation(order)
		if v == nil {
			return nil
		}
		if err := st.emit(SwapOp{Attr: attrOf(v)}); err != nil {
			return err
		}
	}
}

// FinalTree returns the f-tree resulting from simulating the plan on t.
func FinalTree(t *ftree.Forest, p *Plan) (*ftree.Forest, error) {
	sim, _ := t.Clone()
	for _, op := range p.Ops {
		if err := op.ApplyTree(sim); err != nil {
			return nil, err
		}
	}
	return sim, nil
}
