package frep

// The constant-delay enumerators of Section 4: an odometer over uint32
// node indices and dense value slabs. Both are pull-based cursors — Next
// advances one step at a time, so a caller may stop, resume, or skip at
// any point — and grouped enumeration evaluates its parts into reused
// buffers, so steady-state enumeration does not allocate.

import (
	"fmt"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// storeSlot is one loop of the enumeration odometer: its spec plus the
// current union (as a node id and a cached value-slab view) and
// position.
type storeSlot struct {
	slotSpec
	id   NodeID
	vals []values.Value
	pos  int
}

// StoreEnumerator enumerates the tuples of a factorised representation
// with delay independent of the data size (linear in the schema size),
// per Section 4. With a nil order it enumerates in the representation's
// document order; with an order list it enumerates in lexicographic order
// by those attributes, provided the f-tree supports it (Theorem 2).
type StoreEnumerator struct {
	store   *Store
	roots   []NodeID
	slots   []storeSlot
	cols    []colRef
	schema  []string
	tuple   relation.Tuple
	started bool
	done    bool

	// Segment window on slot 0, for parallel enumeration; see Restrict.
	segLo, segHi int
	restricted   bool

	// Lazily built ranked direct-access state; see seek.go.
	seekst *seekState
}

// Restrict confines the outermost enumeration loop (slot 0) to value
// positions [lo, hi) of its root union — the basis of segmented
// parallel enumeration: the streams of consecutive windows, drained in
// slot-0 iteration order, concatenate to exactly the unrestricted
// stream. Restrict must be called before the first Next or Skip.
func (e *StoreEnumerator) Restrict(lo, hi int) {
	e.segLo, e.segHi, e.restricted = lo, hi, true
}

// SegmentUniverse returns the number of values in the union driving the
// outermost enumeration loop — the space that Restrict windows
// partition — or 0 when the enumeration has no loops (or, defensively,
// when slot 0 is not a root loop).
func (e *StoreEnumerator) SegmentUniverse() int {
	if len(e.slots) == 0 || e.slots[0].parentSlot >= 0 {
		return 0
	}
	return e.store.Len(e.roots[e.slots[0].rootIdx])
}

// NewStoreEnumerator creates an enumerator over the representation. order
// may be nil for document order. It fails if the order is not supported
// by the f-tree (restructure first — see fops and the engine) or
// references unknown attributes.
func NewStoreEnumerator(f *ftree.Forest, s *Store, roots []NodeID, order []OrderSpec) (*StoreEnumerator, error) {
	if len(roots) != len(f.Roots) {
		return nil, fmt.Errorf("frep: %d root unions for %d f-tree roots", len(roots), len(f.Roots))
	}
	p, err := planEnum(f, order)
	if err != nil {
		return nil, err
	}
	return newStoreEnumeratorFromPlan(s, roots, p), nil
}

func newStoreEnumeratorFromPlan(s *Store, roots []NodeID, p *enumPlan) *StoreEnumerator {
	e := &StoreEnumerator{store: s, roots: roots, cols: p.cols, schema: p.schema}
	e.slots = make([]storeSlot, len(p.slots))
	for i, sp := range p.slots {
		e.slots[i] = storeSlot{slotSpec: sp}
	}
	e.tuple = make(relation.Tuple, len(p.cols))
	return e
}

// Schema returns the output column names (FlatSchema of the forest).
func (e *StoreEnumerator) Schema() []string { return e.schema }

// Next advances to the next tuple, returning false when exhausted. The
// first call positions at the first tuple.
func (e *StoreEnumerator) Next() bool {
	if !e.advance() {
		return false
	}
	e.fill()
	return true
}

// Skip advances past up to n tuples without assembling them (no column
// fill), returning how many were skipped. A following Next positions at
// the tuple after the skipped prefix, so skipping costs one odometer step
// per tuple and no output work; Seek reaches the same state by ranked
// descent.
func (e *StoreEnumerator) Skip(n int) int {
	k := 0
	for k < n && e.advance() {
		k++
	}
	return k
}

// advance moves the odometer to the next position without assembling the
// output tuple; it returns false when exhausted.
func (e *StoreEnumerator) advance() bool {
	if e.done {
		return false
	}
	if !e.started {
		e.started = true
		for i := range e.slots {
			if !e.resetSlot(i) {
				e.done = true
				return false
			}
		}
		return true
	}
	for i := len(e.slots) - 1; i >= 0; i-- {
		s := &e.slots[i]
		lo, hi := 0, len(s.vals)
		if i == 0 && e.restricted {
			lo, hi = e.clampWindow(hi)
		}
		if s.desc {
			if s.pos > lo {
				s.pos--
			} else {
				continue
			}
		} else {
			if s.pos+1 < hi {
				s.pos++
			} else {
				continue
			}
		}
		for j := i + 1; j < len(e.slots); j++ {
			if !e.resetSlot(j) {
				// Unions below the top level are never empty; resetting
				// mid-stream cannot fail.
				e.done = true
				return false
			}
		}
		return true
	}
	e.done = true
	return false
}

// resetSlot re-resolves slot i's union from its parent state and rewinds
// its position. It returns false if the union is empty.
func (e *StoreEnumerator) resetSlot(i int) bool {
	s := &e.slots[i]
	if s.parentSlot < 0 {
		s.id = e.roots[s.rootIdx]
	} else {
		p := &e.slots[s.parentSlot]
		s.id = e.store.Kid(p.id, p.pos, s.childIdx)
	}
	s.vals = e.store.Vals(s.id)
	lo, hi := 0, len(s.vals)
	if i == 0 && e.restricted {
		lo, hi = e.clampWindow(hi)
	}
	if lo >= hi {
		return false
	}
	if s.desc {
		s.pos = hi - 1
	} else {
		s.pos = lo
	}
	return true
}

// clampWindow intersects the Restrict window with [0, n).
func (e *StoreEnumerator) clampWindow(n int) (int, int) {
	lo, hi := e.segLo, e.segHi
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

func (e *StoreEnumerator) fill() {
	for ci, c := range e.cols {
		s := &e.slots[c.slotIdx]
		v := s.vals[s.pos]
		if c.fieldIdx >= 0 {
			v = v.VecAt(c.fieldIdx)
		}
		e.tuple[ci] = v
	}
}

// Tuple returns the current tuple. The returned slice is reused by Next;
// clone it to retain.
func (e *StoreEnumerator) Tuple() relation.Tuple { return e.tuple }

// StoreGroupEnumerator enumerates one tuple per group over the group-by
// attributes G, computing the aggregation fields over the remaining
// attributes on the fly (Example 1, scenario 3): the f-tree must support
// grouping by G (Theorem 1), all non-group subtrees hang below group nodes
// and are aggregated per group combination without materialising a
// restructured factorisation. Parts evaluate into reused buffers, so
// advancing between groups does not allocate.
type StoreGroupEnumerator struct {
	inner   *StoreEnumerator // over the group slots only
	fields  []ftree.AggField
	schema  []string
	tuple   relation.Tuple
	nGroup  int
	parts   []storeAggPart
	carrier []int
}

// storeAggPart is one maximal non-group subtree to aggregate, with a
// compiled evaluator and a reused output buffer.
type storeAggPart struct {
	partSpec
	ev    *Evaluator
	vals  []values.Value
	count int64
}

// NewStoreGroupEnumerator builds a grouped enumerator: group attributes g
// (with optional order specs applied to them), aggregation fields over
// everything else.
func NewStoreGroupEnumerator(f *ftree.Forest, s *Store, roots []NodeID, g []OrderSpec, fields []ftree.AggField) (*StoreGroupEnumerator, error) {
	gp, err := planGroupEnum(f, g, fields)
	if err != nil {
		return nil, err
	}
	ge := &StoreGroupEnumerator{
		inner:   newStoreEnumeratorFromPlan(s, roots, gp.ep),
		fields:  fields,
		schema:  gp.schema,
		nGroup:  gp.nGroup,
		carrier: gp.carrier,
	}
	ge.parts = make([]storeAggPart, len(gp.parts))
	for i, ps := range gp.parts {
		ev, err := NewEvaluator(ps.node, ps.evFields)
		if err != nil {
			return nil, err
		}
		ge.parts[i] = storeAggPart{
			partSpec: ps,
			ev:       ev,
			vals:     make([]values.Value, len(ps.evFields)),
		}
	}
	ge.tuple = make(relation.Tuple, len(gp.schema))
	return ge, nil
}

// Schema returns group columns followed by one column per aggregation
// field.
func (g *StoreGroupEnumerator) Schema() []string { return g.schema }

// Next advances to the next group, returning false when done.
func (g *StoreGroupEnumerator) Next() (bool, error) {
	if len(g.inner.slots) == 0 {
		// Single global group: emit exactly once, even for empty input
		// (count 0, Null aggregates — engines may adjust).
		if g.inner.done {
			return false, nil
		}
		g.inner.done = true
		if err := g.evalParts(); err != nil {
			return false, err
		}
		g.fillAggs()
		return true, nil
	}
	if !g.inner.Next() {
		return false, nil
	}
	copy(g.tuple[:g.nGroup], g.inner.Tuple())
	if err := g.evalParts(); err != nil {
		return false, err
	}
	g.fillAggs()
	return true, nil
}

// Skip advances past up to n groups without evaluating their aggregation
// parts, returning how many were skipped: OFFSET over grouped output
// costs one odometer step per skipped group, not an aggregation.
func (g *StoreGroupEnumerator) Skip(n int) int {
	if len(g.inner.slots) == 0 {
		if n > 0 && !g.inner.done {
			g.inner.done = true
			return 1
		}
		return 0
	}
	return g.inner.Skip(n)
}

func (g *StoreGroupEnumerator) evalParts() error {
	st := g.inner.store
	for pi := range g.parts {
		p := &g.parts[pi]
		var id NodeID
		if p.parentSlot < 0 {
			id = g.inner.roots[p.rootIdx]
		} else {
			s := &g.inner.slots[p.parentSlot]
			id = st.Kid(s.id, s.pos, p.childIdx)
		}
		if err := p.ev.EvalStoreInto(st, id, p.vals); err != nil {
			return err
		}
		if p.countIdx >= 0 {
			p.count = p.vals[p.countIdx].Int()
		} else {
			p.count = 1 // multiplicity not needed by any output
		}
	}
	return nil
}

// fillAggs assembles the aggregate output fields from the per-part
// counts and values: each field's value in its carrier part (1 per tuple
// for a field without an argument, which no part carries), scaled by the
// multiplicity of the other parts when the field needs counts.
func (g *StoreGroupEnumerator) fillAggs() {
	out := g.tuple[g.nGroup:]
	for i, fl := range g.fields {
		c := g.carrier[i]
		v := values.NewInt(1)
		if c >= 0 {
			v = g.parts[c].vals[g.parts[c].fieldIdx[i]]
		}
		mult := int64(1)
		if fl.Fn.NeedsCount() {
			for pi := range g.parts {
				if pi != c {
					mult *= g.parts[pi].count
				}
			}
		}
		out[i] = fl.Fn.Scale(v, mult)
	}
}

// Tuple returns the current group tuple (group values then aggregates).
// The slice is reused; clone to retain.
func (g *StoreGroupEnumerator) Tuple() relation.Tuple { return g.tuple }
