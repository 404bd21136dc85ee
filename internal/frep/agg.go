package frep

import (
	"fmt"

	"github.com/factordb/fdb/internal/frep/kernel"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/values"
)

// This file implements the recursive aggregation algorithms of
// Section 3.2: count, sum_A, min_A and max_A over a factorised
// representation, with the Section 3.1 interpretation of previously
// computed aggregate attributes (⟨count(X):c⟩ counts as c tuples, etc.),
// evaluated jointly for composite aggregation functions (Section 3.2.4) so
// shared counts are computed once. A count over a subtree with no
// aggregate argument and no aggregate node is the subtree's tuple total,
// which the ranked index (ranks.go) already stores: such a subtree is
// answered by one prefix-sum subtraction whenever its union is ranked.

type actionKind uint8

const (
	actAbsent   actionKind = iota // field's attribute not in this subtree
	actHere                       // atomic node carrying the argument
	actAggField                   // aggregate node storing the field
	actDescend                    // argument lives under one child
)

type fieldAction struct {
	kind actionKind
	idx  int // field index within the agg node (actAggField) or child index (actDescend)
	// scales marks a function lifted over products by multiplicity
	// (ftree.Fn.NeedsCount), read from the table once at compile time.
	scales bool
}

type nodePlan struct {
	// countFieldIdx: -1 for atomic nodes (multiplicity 1 per value),
	// otherwise the index of the Count field within the aggregate node;
	// -2 if the aggregate node has no Count field (its multiplicity is
	// unknowable and poisons counting).
	countFieldIdx int
	actions       []fieldAction

	// leafKernel marks atomic leaf nodes (no children, not an aggregate
	// node): every value has multiplicity 1, so the whole value loop of
	// evalStore reduces to a count plus straight folds over the value
	// window — exactly what the vectorised kernels compute when the
	// window is a kind-homogeneous Int or Float run.
	leafKernel bool

	// countOnly marks an atomic node whose subtree carries no field
	// argument and no aggregate node (every action actAbsent, every
	// child countOnly): its result is a bare tuple count, which the
	// ranked index answers in O(1) whenever the union is ranked.
	// Aggregate nodes never qualify: their rank weight is 1 per value,
	// but their multiplicity is the stored count field.
	countOnly bool
}

// Evaluator computes a fixed list of aggregation functions over
// representations of a fixed f-tree subtree. Compile once, evaluate many
// times (the γ operator calls EvalStoreInto for every occurrence of the
// subtree, the grouped enumerator once per group). Count-only subtrees
// of a ranked store — the whole subtree for a bare count, or the
// children multiplying a field-carrying node — read their counts from
// the ranked index instead of being walked.
// An Evaluator reuses internal per-depth scratch frames and is therefore
// not safe for concurrent use.
type Evaluator struct {
	root      *ftree.Node
	fields    []ftree.AggField
	needCount bool
	plans     map[*ftree.Node]*nodePlan
	frames    []evalFrame
	rootRes   result
}

// evalFrame holds reusable child-result storage for one recursion depth.
type evalFrame struct {
	kids []result
}

func (ev *Evaluator) frame(depth, nKids int) *evalFrame {
	for len(ev.frames) <= depth {
		ev.frames = append(ev.frames, evalFrame{})
	}
	f := &ev.frames[depth]
	for len(f.kids) < nKids {
		f.kids = append(f.kids, result{vals: make([]values.Value, len(ev.fields))})
	}
	return f
}

// NewEvaluator compiles an evaluator for the given fields over the subtree
// rooted at n. It fails if the composition rules of Proposition 2 are
// violated — for example counting over a subtree containing a min
// aggregate, or summing an attribute covered by a count-only aggregate.
func NewEvaluator(n *ftree.Node, fields []ftree.AggField) (*Evaluator, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("frep: evaluator needs at least one field")
	}
	ev := &Evaluator{
		root:   n,
		fields: fields,
		plans:  map[*ftree.Node]*nodePlan{},
	}
	for _, fl := range fields {
		if !fl.Fn.Storable() {
			return nil, fmt.Errorf("frep: %s is not a storable aggregate field", fl)
		}
		if fl.Fn.NeedsCount() {
			ev.needCount = true
		}
	}
	if err := ev.compile(n); err != nil {
		return nil, err
	}
	// Locate each argument's carrier and verify the composition rules
	// along the way.
	for _, fl := range fields {
		if !fl.Fn.HasArg() {
			continue
		}
		carrier := findCarrier(n, fl.Arg)
		if carrier == nil {
			return nil, fmt.Errorf("frep: attribute %q not in subtree %s", fl.Arg, n.Label())
		}
		if carrier.IsAgg() && idxOfField(carrier.Agg.Fields, fl) < 0 {
			return nil, fmt.Errorf("frep: cannot compute %s over aggregate %s covering %q (Proposition 2)",
				fl, carrier.Label(), fl.Arg)
		}
	}
	if ev.needCount {
		// Every aggregate node whose multiplicity matters must carry a
		// count field. A node lacking one is acceptable only if it stores
		// every count-consuming field itself: a count needs every node's
		// multiplicity, and a sum_A needs the multiplicity of every node
		// except A's carrier.
		var bad *ftree.Node
		n.Walk(func(m *ftree.Node) {
			if bad != nil || !m.IsAgg() || idxOfField(m.Agg.Fields, ftree.CountField()) >= 0 {
				return
			}
			for _, fl := range ev.fields {
				if fl.Fn.NeedsCount() && idxOfField(m.Agg.Fields, fl) < 0 {
					bad = m
					return
				}
			}
		})
		if bad != nil {
			return nil, fmt.Errorf("frep: cannot count multiplicities of aggregate %s (no count field; Proposition 2)", bad.Label())
		}
	}
	return ev, nil
}

func idxOfField(fields []ftree.AggField, fl ftree.AggField) int {
	for i, f := range fields {
		if f == fl {
			return i
		}
	}
	return -1
}

// findCarrier returns the node in the subtree that carries attribute a:
// an atomic node whose class contains it or an aggregate node covering it.
func findCarrier(n *ftree.Node, a string) *ftree.Node {
	var found *ftree.Node
	n.Walk(func(m *ftree.Node) {
		if found != nil {
			return
		}
		if m.IsAgg() {
			if m.Agg.Covers(a) {
				found = m
			}
		} else if m.HasAttr(a) {
			found = m
		}
	})
	return found
}

func (ev *Evaluator) compile(n *ftree.Node) error {
	p := &nodePlan{countFieldIdx: -1, actions: make([]fieldAction, len(ev.fields))}
	if n.IsAgg() {
		p.countFieldIdx = idxOfField(n.Agg.Fields, ftree.CountField())
		if p.countFieldIdx < 0 {
			p.countFieldIdx = -2
		}
	}
	for fi, fl := range ev.fields {
		act := fieldAction{kind: actAbsent}
		switch {
		case !fl.Fn.HasArg():
			// No carrier: assembled from multiplicities.
		case n.IsAgg():
			if i := idxOfField(n.Agg.Fields, fl); i >= 0 {
				act = fieldAction{kind: actAggField, idx: i}
			} else if n.Agg.Covers(fl.Arg) {
				return fmt.Errorf("frep: cannot compute %s over aggregate %s (Proposition 2)", fl, n.Label())
			}
		case n.HasAttr(fl.Arg):
			act = fieldAction{kind: actHere}
		}
		if act.kind == actAbsent && fl.Fn.HasArg() {
			for ci, c := range n.Children {
				if findCarrier(c, fl.Arg) != nil {
					act = fieldAction{kind: actDescend, idx: ci}
					break
				}
			}
		}
		act.scales = fl.Fn.NeedsCount()
		p.actions[fi] = act
	}
	p.leafKernel = len(n.Children) == 0 && !n.IsAgg()
	p.countOnly = !n.IsAgg()
	for _, act := range p.actions {
		p.countOnly = p.countOnly && act.kind == actAbsent
	}
	ev.plans[n] = p
	for _, c := range n.Children {
		if err := ev.compile(c); err != nil {
			return err
		}
		p.countOnly = p.countOnly && ev.plans[c].countOnly
	}
	return nil
}

// result carries the running aggregates for one subtree representation.
// count is -1 ("poisoned") when a multiplicity was unknowable; using a
// poisoned count in an output is an internal error caught by
// EvalStoreRangeInto.
type result struct {
	count int64
	vals  []values.Value
}

// EvalStore computes the evaluator's fields over union id of store s.
// For an empty representation, count fields evaluate to 0 and other
// fields to Null.
func (ev *Evaluator) EvalStore(s *Store, id NodeID) ([]values.Value, error) {
	out := make([]values.Value, len(ev.fields))
	if err := ev.EvalStoreInto(s, id, out); err != nil {
		return nil, err
	}
	return out, nil
}

// EvalStoreInto is EvalStore writing into a caller-provided slice of
// length len(fields), avoiding the output allocation on hot paths.
func (ev *Evaluator) EvalStoreInto(s *Store, id NodeID, out []values.Value) error {
	return ev.EvalStoreRangeInto(s, id, 0, s.Len(id), out)
}

// EvalStoreRangeInto is EvalStoreInto restricted to the value window
// [lo, hi) of the root union id: one window of a partitioned
// evaluation. Every storable field is a commutative monoid (ftree's
// table), so partial results over contiguous windows combine with
// MergePartials into the full-union result (bit-identically for integer
// data; float sums may differ from the serial fold in the last bits of
// rounding).
func (ev *Evaluator) EvalStoreRangeInto(s *Store, id NodeID, lo, hi int, out []values.Value) error {
	if ev.rootRes.vals == nil {
		ev.rootRes.vals = make([]values.Value, len(ev.fields))
	}
	res := ev.rootRes
	ev.evalStore(ev.root, s, id, lo, hi, 0, &res)
	for i, fl := range ev.fields {
		if !fl.Fn.HasArg() {
			if res.count < 0 {
				return fmt.Errorf("frep: poisoned count for %s (invalid aggregate composition)", fl)
			}
			out[i] = values.NewInt(res.count)
		} else {
			if isPoison(res.vals[i]) {
				return fmt.Errorf("frep: poisoned value for %s (invalid aggregate composition)", fl)
			}
			out[i] = res.vals[i]
		}
	}
	return nil
}

// evalStore accumulates the aggregates for union id into res. Child
// results live in per-depth scratch frames so steady-state evaluation
// does not allocate. The [lo, hi) window restricts the top-level value
// loop only; recursive calls always cover their whole union.
func (ev *Evaluator) evalStore(n *ftree.Node, s *Store, id NodeID, lo, hi int, depth int, res *result) {
	p := ev.plans[n]
	if p.countOnly {
		if t, ok := s.windowTuples(id, lo, hi); ok {
			res.count = int64(t) // totals are capped at 2⁶², so int64 is exact
			for i := range res.vals {
				res.vals[i] = values.Value{}
			}
			if KernelStatsEnabled {
				kstats.aggRanked.Add(1)
			}
			return
		}
	}
	if p.leafKernel && EnableKernels && ev.evalLeafStoreKernel(p, s, id, lo, hi, res) {
		return
	}
	res.count = 0
	for i := range res.vals {
		res.vals[i] = values.Value{}
	}
	nc := len(n.Children)
	var kidRes []result
	if nc > 0 {
		kidRes = ev.frame(depth, nc).kids[:nc]
	}
	uVals := s.Vals(id)
	for i := lo; i < hi; i++ {
		var row []NodeID
		if nc > 0 {
			row = s.KidRow(id, i)
		}
		mult := int64(1)
		for j := 0; j < nc; j++ {
			ev.evalStore(n.Children[j], s, row[j], 0, s.Len(row[j]), depth+1, &kidRes[j])
			if kidRes[j].count < 0 || mult < 0 {
				mult = -1
			} else {
				mult *= kidRes[j].count
			}
		}
		self := int64(1)
		switch {
		case p.countFieldIdx == -2:
			self = -1
		case p.countFieldIdx >= 0:
			fv := fieldValue(uVals[i], p.countFieldIdx, len(n.Agg.Fields))
			self = fv.Int()
		}
		cnt := int64(-1)
		if self >= 0 && mult >= 0 {
			cnt = self * mult
		}
		if res.count >= 0 && cnt >= 0 {
			res.count += cnt
		} else {
			res.count = -1
		}
		for fi, act := range p.actions {
			// v is represented m times: once per tuple of the siblings it
			// is multiplied with (functions that do not scale ignore m).
			var v values.Value
			m := mult
			switch act.kind {
			case actAbsent:
				// Fields without an argument are assembled from res.count.
				continue
			case actHere:
				v = uVals[i]
			case actAggField:
				v = fieldValue(uVals[i], act.idx, len(n.Agg.Fields))
			case actDescend:
				v = kidRes[act.idx].vals[fi]
				if act.scales {
					m = self
					for j := 0; j < nc && m >= 0; j++ {
						if j == act.idx {
							continue
						}
						if kidRes[j].count < 0 {
							m = -1
						} else {
							m *= kidRes[j].count
						}
					}
					if isPoison(v) {
						m = -1
					}
				}
			}
			if act.scales {
				if isPoison(res.vals[fi]) {
					continue
				}
				if m < 0 {
					res.vals[fi] = poisonVal()
					continue
				}
			}
			ev.fields[fi].Fn.Fold(&res.vals[fi], v, m)
		}
	}
}

// evalLeafStoreKernel evaluates an atomic leaf node's aggregates through
// the vectorised kernels when the value window [lo, hi) is a
// kind-homogeneous Int or Float run of the column index. It reports
// false — leaving res untouched beyond its reset — when the window does
// not qualify (unindexed, mixed-kind, or a kind the kernels skip: Bool
// sums promote to Float through the scalar AsFloat path, and
// String/Vec/Null never carry numeric aggregates), in which case the
// caller runs the scalar loop.
//
// Byte-identity with the scalar fold: every value has multiplicity 1, so
// the scalar fold is acc = Add(acc, MulInt(v, 1)) left to right from a
// Null accumulator. For Int runs that is a wrapping int64 sum (any
// association); for Float runs it is v0·1.0 then += vi·1.0 — and
// multiplication by 1.0 is exact for every float64 including -0.0 and
// NaN payloads, so kernel.SumFloatBits' strict left-to-right fold from
// the first element reproduces it bit for bit. Min/Max kernels move only
// on strict </>, matching values.Min/Max keeping the earlier operand on
// Compare ties, and the winning stored value is emitted verbatim.
func (ev *Evaluator) evalLeafStoreKernel(p *nodePlan, s *Store, id NodeID, lo, hi int, res *result) bool {
	h := s.hdr(id)
	n := hi - lo
	if n <= 0 {
		res.count = 0
		for i := range res.vals {
			res.vals[i] = values.Value{}
		}
		return true
	}
	k, pay, ok := s.colRun(h.valOff+uint32(lo), uint32(n))
	if !ok || (k != values.Int && k != values.Float) {
		if KernelStatsEnabled {
			kstats.aggFallback.Add(1)
		}
		return false
	}
	res.count = int64(n)
	for i := range res.vals {
		res.vals[i] = values.Value{}
	}
	minIdx, maxIdx := -1, -1
	for fi, act := range p.actions {
		if act.kind != actHere {
			continue // actAbsent: count-only or carried elsewhere, stays Null
		}
		switch ev.fields[fi].Fn {
		case ftree.Sum:
			if k == values.Int {
				res.vals[fi] = values.NewInt(kernel.SumInt64(pay))
			} else {
				res.vals[fi] = values.NewFloat(kernel.SumFloatBits(pay))
			}
		case ftree.Min, ftree.Max:
			if minIdx < 0 {
				if k == values.Int {
					minIdx, maxIdx = kernel.MinMaxInt64(pay)
				} else {
					minIdx, maxIdx = kernel.MinMaxFloatBits(pay)
				}
			}
			idx := minIdx
			if ev.fields[fi].Fn == ftree.Max {
				idx = maxIdx
			}
			res.vals[fi] = s.valSlice(h.valOff, h.nVals)[lo+idx]
		}
	}
	if KernelStatsEnabled {
		kstats.aggKernel.Add(1)
	}
	return true
}

// CountStore returns the cardinality of the representation id over
// subtree n under the aggregate-attribute interpretation of Section 3.1
// (the paper's count algorithm).
func CountStore(n *ftree.Node, s *Store, id NodeID) (int64, error) {
	ev, err := NewEvaluator(n, []ftree.AggField{ftree.CountField()})
	if err != nil {
		return 0, err
	}
	var out [1]values.Value
	if err := ev.EvalStoreInto(s, id, out[:]); err != nil {
		return 0, err
	}
	return out[0].Int(), nil
}

// CountAllStore multiplies CountStore over the roots of a forest
// representation.
func CountAllStore(f *ftree.Forest, s *Store, roots []NodeID) (int64, error) {
	total := int64(1)
	for i, r := range f.Roots {
		c, err := CountStore(r, s, roots[i])
		if err != nil {
			return 0, err
		}
		total *= c
		if total == 0 {
			return 0, nil
		}
	}
	return total, nil
}

// fieldValue extracts the idx-th component of an aggregate node's stored
// value: scalar when the node has a single field, vector otherwise.
func fieldValue(v values.Value, idx, nFields int) values.Value {
	if nFields == 1 {
		return v
	}
	return v.VecAt(idx)
}

// poison sentinel for sum results whose multiplicities were unknowable.
func poisonVal() values.Value { return values.NewString("\x00poisoned") }

func isPoison(v values.Value) bool {
	if v.Kind() != values.String {
		return false
	}
	s := v.Str()
	return len(s) > 0 && s[0] == 0 && s == "\x00poisoned"
}
