package frep

// Factorising a relation into a store: rows are grouped into slab-backed
// nodes with per-depth scratch buffers, so steady-state construction
// allocates only on slab growth. O(|rel|·depth·log|rel|), plus a
// verification pass for BuildStore.

import (
	"fmt"
	"sort"

	"github.com/factordb/fdb/internal/frep/kernel"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// BuildStore factorises a relation over the f-tree into the store and
// verifies that the f-tree's independence assumptions hold for this
// relation (the represented relation equals the input up to duplicate
// elimination). All f-tree nodes must be atomic. Appends to s; the
// returned ids are one root per f-tree root.
func BuildStore(s *Store, rel *relation.Relation, f *ftree.Forest) ([]NodeID, error) {
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		return nil, err
	}
	distinct := rel.Dedup().Cardinality()
	if len(roots) == 0 {
		if distinct > 1 {
			return nil, fmt.Errorf("frep: empty f-tree cannot represent %d tuples", distinct)
		}
		return roots, nil
	}
	got := int64(1)
	for _, r := range roots {
		got *= s.CountPlain(r)
		if got == 0 {
			break
		}
	}
	if got != int64(distinct) {
		return nil, fmt.Errorf("frep: relation does not factorise over f-tree: represents %d tuples, relation has %d distinct", got, distinct)
	}
	return roots, nil
}

// BuildStoreUnchecked factorises without verifying the independence
// assumptions. If the relation does not satisfy them, the result
// represents a superset of the relation (the join of its projections).
// Use BuildStore unless the f-tree is known to be valid — for example a
// linear path over a single relation, which is always valid.
func BuildStoreUnchecked(s *Store, rel *relation.Relation, f *ftree.Forest) ([]NodeID, error) {
	cols := map[string]int{}
	for i, a := range rel.Attrs {
		cols[a] = i
	}
	for _, n := range f.Nodes() {
		if n.IsAgg() {
			return nil, fmt.Errorf("frep: Build over f-tree with aggregate node %s", n.Label())
		}
		for _, a := range n.Attrs {
			if _, ok := cols[a]; !ok {
				return nil, fmt.Errorf("frep: relation %s has no attribute %q required by f-tree", rel.Name, a)
			}
		}
	}
	treeAttrs := f.AtomicAttrs()
	if len(treeAttrs) != len(rel.Attrs) {
		return nil, fmt.Errorf("frep: f-tree covers %d attributes, relation has %d", len(treeAttrs), len(rel.Attrs))
	}
	out := make([]NodeID, len(f.Roots))
	if rel.Cardinality() == 0 {
		for i := range out {
			out[i] = EmptyNode
		}
		return out, nil
	}
	rows := make([]int32, rel.Cardinality())
	for i := range rows {
		rows[i] = int32(i)
	}
	// One scratch frame per possible recursion depth, allocated up front
	// so frames are never appended (and thus never moved) mid-recursion.
	b := &storeBuilder{s: s, rel: rel, cols: cols,
		depths: make([]buildScratch, len(f.Nodes())+1), ints: intColumns(rel)}
	for i, r := range f.Roots {
		id, err := b.build(r, rows, 0)
		if err != nil {
			return nil, err
		}
		out[i] = id
	}
	return out, nil
}

// storeBuilder groups relation rows into store nodes with one scratch
// frame per recursion depth, reused across sibling subtrees and value
// groups.
type storeBuilder struct {
	s      *Store
	rel    *relation.Relation
	cols   map[string]int
	depths []buildScratch
	sorter rowSorter
	// ints holds each all-Int column as int64s (nil for other columns,
	// and for all of them with kernels off).
	ints [][]int64
	// keys, pos and radix are the integer sort's pairs and scratch.
	keys, pos []int64
	radix     kernel.SortScratch
}

// intColumns copies each all-Int column of rel into an int64 slice, in
// one sequential pass per column, so that reads in any row order touch
// compact memory instead of chasing each tuple.
func intColumns(rel *relation.Relation) [][]int64 {
	out := make([][]int64, len(rel.Attrs))
	if !EnableKernels {
		return out
	}
	for c := range out {
		col := make([]int64, len(rel.Tuples))
		for i, t := range rel.Tuples {
			if t[c].Kind() != values.Int {
				col = nil
				break
			}
			col[i] = t[c].Int()
		}
		out[c] = col
	}
	return out
}

// rowSorter is a reusable sort.Interface over row indices: one instance
// lives in the builder and is re-pointed per sort, so sorting allocates
// nothing (sort.SliceStable would cost a closure and a reflect swapper
// per union node).
type rowSorter struct {
	rows   []int32
	tuples []relation.Tuple
	col    int
}

func (r *rowSorter) Len() int { return len(r.rows) }
func (r *rowSorter) Less(i, j int) bool {
	return values.Less(r.tuples[r.rows[i]][r.col], r.tuples[r.rows[j]][r.col])
}
func (r *rowSorter) Swap(i, j int) { r.rows[i], r.rows[j] = r.rows[j], r.rows[i] }

// sortRows stably sorts rows by their value in column col. An all-Int
// column takes the radix kernel, linear in the rows, and returns the
// sorted keys; any other takes sort.Stable and returns nil. The kernel
// matters when the rows arrive in another order — a base sorted into a
// path order other than the one it was flattened in — where the
// merges of sort.Stable cost O(n log² n) random tuple reads.
func (b *storeBuilder) sortRows(rows []int32, col int) []int64 {
	ints := b.ints[col]
	if ints == nil {
		b.sorter = rowSorter{rows: rows, tuples: b.rel.Tuples, col: col}
		sort.Stable(&b.sorter)
		return nil
	}
	keys, pos := b.keys[:0], b.pos[:0]
	for _, r := range rows {
		keys = append(keys, ints[r])
		pos = append(pos, int64(r))
	}
	b.keys, b.pos = keys, pos
	keys, pos = kernel.SortPairsInt64(keys, pos, &b.radix)
	for i, p := range pos {
		rows[i] = int32(p)
	}
	return keys
}

type buildScratch struct {
	rows []int32
	keys []int64
	vals []values.Value
	kids []NodeID
}

func (b *storeBuilder) scratch(depth int) *buildScratch {
	return &b.depths[depth]
}

// build groups the given rows by the node's value and recurses into
// child subtrees, writing one store node per (node, context).
func (b *storeBuilder) build(n *ftree.Node, rows []int32, depth int) (NodeID, error) {
	col := b.cols[n.Attrs[0]]
	tuples := b.rel.Tuples
	for _, a := range n.Attrs[1:] {
		c := b.cols[a]
		for _, r := range rows {
			if values.Compare(tuples[r][col], tuples[r][c]) != 0 {
				return EmptyNode, fmt.Errorf("frep: class %s: tuple %d has unequal values %v and %v",
					n.Label(), r, tuples[r][col], tuples[r][c])
			}
		}
	}
	sc := b.scratch(depth)
	sc.rows = append(sc.rows[:0], rows...)
	sorted := sc.rows
	// The recursion below reuses the sort's buffers, so the keys are
	// copied into this depth's scratch.
	sc.keys = append(sc.keys[:0], b.sortRows(sorted, col)...)
	keys := sc.keys
	sc.vals = sc.vals[:0]
	sc.kids = sc.kids[:0]
	arity := len(n.Children)
	for start := 0; start < len(sorted); {
		var v values.Value
		end := start + 1
		if len(keys) > 0 {
			v = values.NewInt(keys[start])
			for end < len(sorted) && keys[end] == keys[start] {
				end++
			}
		} else {
			v = tuples[sorted[start]][col]
			for end < len(sorted) && values.Compare(tuples[sorted[end]][col], v) == 0 {
				end++
			}
		}
		sc.vals = append(sc.vals, v)
		for _, c := range n.Children {
			k, err := b.build(c, sorted[start:end], depth+1)
			if err != nil {
				return EmptyNode, err
			}
			sc.kids = append(sc.kids, k)
		}
		start = end
	}
	return b.s.Add(sc.vals, arity, sc.kids), nil
}

// FlattenStore materialises the relation represented in the store, in
// document order. The tuples share one backing slice of n×arity values.
// Aggregate nodes contribute their stored values as plain columns (no
// reweighting); use engine-level enumeration for interpreted output.
func FlattenStore(f *ftree.Forest, s *Store, roots []NodeID) (*relation.Relation, error) {
	schema := FlatSchema(f)
	e, err := NewStoreEnumerator(f, s, roots, nil)
	if err != nil {
		return nil, err
	}
	n := int64(1)
	for _, r := range roots {
		n *= s.CountPlain(r)
	}
	// n sizes the backing slice; it is only a hint, clamped so that an
	// overflowed count cannot make the allocation panic.
	k := len(schema)
	vals := make([]values.Value, 0, min(max(n, 0), 1<<30)*int64(k))
	rows := 0
	for ; e.Next(); rows++ {
		vals = append(vals, e.Tuple()...)
	}
	tuples := make([]relation.Tuple, rows)
	for i := range tuples {
		tuples[i] = relation.Tuple(vals[i*k : (i+1)*k : (i+1)*k])
	}
	return relation.New("flat", schema, tuples)
}
