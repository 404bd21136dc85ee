package plan

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
)

// errSearchSpace signals that the exhaustive search exceeded its state
// budget; Plan falls back to the greedy heuristic.
var errSearchSpace = errors.New("plan: exhaustive search space exceeded")

// exState is one node of the f-plan search graph: an f-tree plus the
// pending equality selections (Proposition 3 determines its outgoing
// edges).
type exState struct {
	tree    *ftree.Forest
	pending []query.Equality
	ops     []Op
	cost    float64
}

type stateHeap []*exState

func (h stateHeap) Len() int            { return len(h) }
func (h stateHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h stateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *stateHeap) Push(x interface{}) { *h = append(*h, x.(*exState)) }
func (h *stateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// planExhaustive runs Dijkstra over the space of permissible f-plans for
// an aggregation query (Section 5.1). Edge weight is the size bound of
// the operator's output f-tree. It returns errSearchSpace when the state
// budget is exhausted.
func (p *Planner) planExhaustive(t *ftree.Forest, q *query.Query, req []ftree.AggField) (*Plan, error) {
	maxStates := p.MaxStates
	if maxStates == 0 {
		maxStates = 50000
	}
	group := groupAttrsOrderFirst(q)
	groupSet := map[string]bool{}
	for _, g := range group {
		groupSet[g] = true
	}
	var order []string
	for _, o := range q.OrderBy {
		if groupSet[o.Attr] {
			order = append(order, o.Attr)
		}
	}

	start, _ := t.Clone()
	initOps := make([]Op, 0, len(q.Filters))
	cost := start.SizeBound(p.Catalog)
	for _, f := range q.Filters {
		op := SelectConstOp{Attr: f.Attr, Cmp: f.Op, Const: f.Const}
		if err := op.ApplyTree(start); err != nil {
			return nil, err
		}
		initOps = append(initOps, op)
	}
	init := &exState{tree: start, pending: normalizePending(start, q.Equalities), ops: initOps, cost: cost}

	h := &stateHeap{init}
	heap.Init(h)
	visited := map[string]bool{}
	explored := 0
	for h.Len() > 0 {
		if err := p.ctxErr(); err != nil {
			return nil, err
		}
		st := heap.Pop(h).(*exState)
		key := stateKey(st)
		if visited[key] {
			continue
		}
		visited[key] = true
		explored++
		if explored > maxStates {
			return nil, errSearchSpace
		}
		if p.isGoal(st, group, order) {
			tail := &greedyState{p: p, sim: st.tree, q: q, ops: st.ops, cost: st.cost}
			if err := tail.orderByAggregate(); err != nil {
				return nil, err
			}
			return &Plan{Ops: tail.ops, Cost: tail.cost}, nil
		}
		for _, succ := range p.successors(st, q, req, group) {
			if !visited[stateKey(succ)] {
				heap.Push(h, succ)
			}
		}
	}
	return nil, fmt.Errorf("plan: no f-plan found for %s", q)
}

func normalizePending(t *ftree.Forest, pending []query.Equality) []query.Equality {
	var out []query.Equality
	for _, e := range pending {
		na, nb := t.ResolveAttr(e.A), t.ResolveAttr(e.B)
		if na != nil && na == nb {
			continue
		}
		out = append(out, e)
	}
	return out
}

func stateKey(st *exState) string {
	eqs := make([]string, len(st.pending))
	for i, e := range st.pending {
		eqs[i] = e.A + "=" + e.B
	}
	sort.Strings(eqs)
	return st.tree.CanonicalKey() + "||" + strings.Join(eqs, ";")
}

func (p *Planner) isGoal(st *exState, group, order []string) bool {
	if len(st.pending) > 0 {
		return false
	}
	groupSet := map[string]bool{}
	for _, g := range group {
		groupSet[g] = true
	}
	for _, n := range st.tree.Nodes() {
		if n.IsAgg() {
			continue
		}
		inG := false
		for _, a := range n.Attrs {
			if groupSet[a] {
				inG = true
			}
		}
		if !inG {
			return false // atomic attribute not yet aggregated
		}
	}
	if len(group) > 0 && st.tree.GroupingViolation(group) != nil {
		return false
	}
	if len(order) > 0 && st.tree.OrderViolation(order) != nil {
		return false
	}
	return true
}

// successors generates the permissible next operators per Proposition 3:
// merge/absorb for pending equalities, γ over any subtree disjoint from
// the group attributes and pending equalities, and any swap.
func (p *Planner) successors(st *exState, q *query.Query, req []ftree.AggField, group []string) []*exState {
	var out []*exState
	extend := func(op Op, dropEq int) {
		sim, _ := st.tree.Clone()
		if err := op.ApplyTree(sim); err != nil {
			return
		}
		ns := &exState{
			tree: sim,
			ops:  append(append([]Op{}, st.ops...), op),
			cost: st.cost + sim.SizeBound(p.Catalog),
		}
		for i, e := range st.pending {
			if i != dropEq {
				ns.pending = append(ns.pending, e)
			}
		}
		ns.pending = normalizePending(sim, ns.pending)
		out = append(out, ns)
	}

	for i, e := range st.pending {
		na, nb := st.tree.ResolveAttr(e.A), st.tree.ResolveAttr(e.B)
		if na == nil || nb == nil {
			continue
		}
		switch {
		case na.Parent == nb.Parent:
			extend(MergeOp{A: e.A, B: e.B}, i)
		case na.IsAncestorOf(nb):
			extend(AbsorbOp{Anc: e.A, Desc: e.B}, i)
		case nb.IsAncestorOf(na):
			extend(AbsorbOp{Anc: e.B, Desc: e.A}, i)
		}
	}

	forbidden := map[string]bool{}
	for _, g := range group {
		forbidden[g] = true
	}
	for _, e := range st.pending {
		forbidden[e.A] = true
		forbidden[e.B] = true
	}
	for _, n := range st.tree.Nodes() {
		if n.Parent != nil {
			extend(SwapOp{Attr: attrOf(n)}, -1)
		}
		// γ over the subtree rooted at n.
		blocked := false
		n.Walk(func(m *ftree.Node) {
			if !m.IsAgg() {
				for _, a := range m.Attrs {
					if forbidden[a] {
						blocked = true
					}
				}
			}
		})
		if blocked {
			continue
		}
		sub := map[string]bool{}
		for _, a := range n.SubtreeAttrs() {
			sub[a] = true
		}
		fields := PartialFields(req, sub)
		if n.IsLeaf() && n.IsAgg() && fieldsSuperset(n.Agg.Fields, fields) {
			continue // no-op
		}
		if fops.CanGamma(n, fields) != nil {
			continue
		}
		extend(GammaOp{Attr: attrOf(n), Fields: fields}, -1)
	}
	return out
}
