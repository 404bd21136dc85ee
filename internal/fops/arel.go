package fops

// ARel is the factorised relation the operators work on: a coupled
// (f-tree, representation) pair with all unions living in one
// frep.Store and addressed by node indices. Operators are arena-to-arena
// transforms: they append new nodes that reference untouched subtrees in
// place, so there are no per-node allocations and no deep clones — a
// whole-forest clone is three slab copies and a snapshot is O(1).

import (
	"fmt"
	"sync"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// ARel couples an f-tree with an arena representation over it: one store
// holding every union, and one root node id per f-tree root.
type ARel struct {
	Tree  *ftree.Forest
	Store *frep.Store
	Roots []frep.NodeID
	// Par is the intra-operator parallelism hint: operators whose
	// occurrence loop runs below a root union of at least
	// MinParallelRebuildValues values fan it across up to Par workers
	// (per-worker overlay arenas, merged back in segment order). 0 or 1
	// executes serially. Par is advisory — results are identical either
	// way.
	Par int
}

// FromRelationStore factorises a relation into the store over the
// f-tree, verifying the decomposition (frep.BuildStore).
func FromRelationStore(s *frep.Store, rel *relation.Relation, f *ftree.Forest) (*ARel, error) {
	roots, err := frep.BuildStore(s, rel, f)
	if err != nil {
		return nil, err
	}
	return &ARel{Tree: f, Store: s, Roots: roots}, nil
}

// FromRelationStoreUnchecked factorises without verifying the
// decomposition; use only for f-trees known to be valid.
func FromRelationStoreUnchecked(s *frep.Store, rel *relation.Relation, f *ftree.Forest) (*ARel, error) {
	roots, err := frep.BuildStoreUnchecked(s, rel, f)
	if err != nil {
		return nil, err
	}
	return &ARel{Tree: f, Store: s, Roots: roots}, nil
}

// Clone deep-copies the factorised relation — three slab copies plus the
// f-tree, regardless of node count. The returned ARel's tree nodes
// correspond to the original's via the second return value.
func (ar *ARel) Clone() (*ARel, map[*ftree.Node]*ftree.Node) {
	t, corr := ar.Tree.Clone()
	return &ARel{Tree: t, Store: ar.Store.Clone(), Roots: append([]frep.NodeID{}, ar.Roots...), Par: ar.Par}, corr
}

// Snapshot returns an O(1) immutable view sharing the store's slabs:
// both sides may keep transforming independently (appends copy out of
// the shared backing on first growth). This is how the server shares one
// materialised base representation across concurrent queries.
func (ar *ARel) Snapshot() *ARel {
	t, _ := ar.Tree.Clone()
	return &ARel{Tree: t, Store: ar.Store.Snapshot(), Roots: append([]frep.NodeID{}, ar.Roots...), Par: ar.Par}
}

// IsEmpty reports whether the represented relation is empty (some root
// union has no values).
func (ar *ARel) IsEmpty() bool {
	for _, r := range ar.Roots {
		if ar.Store.Len(r) == 0 {
			return true
		}
	}
	return false
}

// MakeEmpty canonicalises an empty representation: every root becomes
// the empty union.
func (ar *ARel) MakeEmpty() {
	for i := range ar.Roots {
		ar.Roots[i] = frep.EmptyNode
	}
}

// Check verifies the representation invariants against the f-tree;
// intended for tests and Paranoid mode.
func (ar *ARel) Check() error {
	if err := ar.Tree.Validate(); err != nil {
		return err
	}
	return frep.CheckStoreInvariantsAll(ar.Tree, ar.Store, ar.Roots)
}

// Flatten materialises the represented relation (plain values; aggregate
// nodes contribute their stored values).
func (ar *ARel) Flatten() (*relation.Relation, error) {
	return frep.FlattenStore(ar.Tree, ar.Store, ar.Roots)
}

// Singletons returns the representation size in singletons.
func (ar *ARel) Singletons() int { return ar.Store.SingletonsAll(ar.Roots) }

// Enumerator returns a constant-delay enumerator over the
// representation, nil order for document order.
func (ar *ARel) Enumerator(order []frep.OrderSpec) (*frep.StoreEnumerator, error) {
	return frep.NewStoreEnumerator(ar.Tree, ar.Store, ar.Roots, order)
}

// GroupEnumerator returns a grouped enumerator computing the fields per
// combination of the group attributes.
func (ar *ARel) GroupEnumerator(g []frep.OrderSpec, fields []ftree.AggField) (*frep.StoreGroupEnumerator, error) {
	return frep.NewStoreGroupEnumerator(ar.Tree, ar.Store, ar.Roots, g, fields)
}

// rebuildFn transforms one occurrence of a target union, returning its
// replacement (which may be EmptyNode to delete the context). Instances
// are bound to one store by their factory; see rebuildAt.
type rebuildFn func(id frep.NodeID) (frep.NodeID, error)

// scratch is the working memory of one executing store's occurrence
// loop: rebuildIn's per-depth row buffers and χ's swapScratch. Exactly
// one goroutine uses a scratch at a time — rebuildAt takes one for a
// serial rebuild, every parallel worker takes its own — and it returns
// to scratchPool afterwards, so in the steady state an operator's
// occurrences, and successive queries, allocate nothing here.
type scratch struct {
	levels []levelBuf
	swap   swapScratch
}

// levelBuf collects the surviving (value, kid-row) pairs of the union
// rebuildIn is re-assembling at one depth of the path.
type levelBuf struct {
	vals []values.Value
	kids []frep.NodeID
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// unpin drops what the scratch may still reference outside itself
// before it goes back to the pool: χ's generic path leaves slab windows
// in bVals and String/Vec values in the builders (the Int path leaves
// only integers and node ids, and rebuildIn clears its own levels).
func (sc *scratch) unpin() {
	if sc.swap.pinned {
		sc.swap = swapScratch{}
	}
}

// rebuildAt applies the transform built by mk to every occurrence of
// the node identified by (rootIdx, path), pruning values whose
// transformed subtree became empty. mk is called once per executing
// store — once for a serial rebuild, once per worker overlay for a
// parallel one — with the scratch that belongs to that execution, so a
// transform instance may hold builder and evaluator state bound to its
// store without sharing or locking. When path is non-empty, ar.Par > 1
// and the root union is large enough, the occurrence loop fans across
// segment workers (parallelRebuild); results are identical either way.
func (ar *ARel) rebuildAt(rootIdx int, path []int, mk func(st *frep.Store, sc *scratch) rebuildFn) error {
	root := ar.Roots[rootIdx]
	par := len(path) > 0 && ar.Par > 1 && ar.Store.Len(root) >= MinParallelRebuildValues
	if par {
		if t, ok := ar.Store.RankTotal(root); ok && t < MinParallelRebuildWork {
			par = false
		}
	}
	var nr frep.NodeID
	var err error
	if par {
		nr, err = ar.parallelRebuild(root, path, mk)
	} else {
		nr, err = serialRebuild(ar.Store, root, path, mk)
	}
	if err != nil {
		return err
	}
	ar.Roots[rootIdx] = nr
	if ar.IsEmpty() {
		ar.MakeEmpty()
	}
	return nil
}

// serialRebuild runs the whole occurrence recursion on st with one
// pooled scratch.
func serialRebuild(st *frep.Store, id frep.NodeID, path []int, mk func(st *frep.Store, sc *scratch) rebuildFn) (frep.NodeID, error) {
	sc := scratchPool.Get().(*scratch)
	defer func() {
		sc.unpin()
		scratchPool.Put(sc)
	}()
	return rebuildIn(st, sc, id, path, mk(st, sc))
}

// rebuildIn is the serial occurrence recursion of rebuildAt, reading
// and appending through st (the base store, or one worker's overlay).
// The union under reconstruction at each depth accumulates in that
// depth's levelBuf of sc; deeper calls use deeper levels, so a buffer
// is never live in two frames.
func rebuildIn(st *frep.Store, sc *scratch, id frep.NodeID, path []int, fn rebuildFn) (frep.NodeID, error) {
	if len(sc.levels) < len(path) {
		sc.levels = append(sc.levels, make([]levelBuf, len(path)-len(sc.levels))...)
	}
	return rebuildLevel(st, sc, id, path, 0, fn)
}

func rebuildLevel(st *frep.Store, sc *scratch, id frep.NodeID, path []int, depth int, fn rebuildFn) (frep.NodeID, error) {
	if depth == len(path) {
		return fn(id)
	}
	p := path[depth]
	n := st.Len(id)
	arity := st.Arity(id)
	vals, kids := sc.levels[depth].vals[:0], sc.levels[depth].kids[:0]
	for i := 0; i < n; i++ {
		row := st.KidRow(id, i)
		nk, err := rebuildLevel(st, sc, row[p], path, depth+1, fn)
		if err != nil {
			return frep.EmptyNode, err
		}
		if st.Len(nk) == 0 {
			continue // prune this value
		}
		vals = append(vals, st.Val(id, i))
		off := len(kids)
		kids = append(kids, row...)
		kids[off+p] = nk
	}
	out := st.Add(vals, arity, kids)
	// Add copied both; drop the value references so a pooled scratch
	// pins no string or vector memory.
	clear(vals)
	sc.levels[depth] = levelBuf{vals: vals, kids: kids}
	return out, nil
}

// Product combines two factorised relations into one representing their
// Cartesian product: the forests are concatenated (with b's dependency
// tokens shifted to stay disjoint from a's), the root unions appended,
// and b's store contents grafted into a's when the two differ. The
// inputs are consumed.
func Product(a, b *ARel) *ARel {
	b.Tree.ShiftTokens(a.Tree.TokenBound())
	a.Tree.Concat(b.Tree)
	if a.Store == b.Store {
		a.Roots = append(a.Roots, b.Roots...)
	} else {
		remap := a.Store.Graft(b.Store)
		for _, r := range b.Roots {
			a.Roots = append(a.Roots, remap(r))
		}
	}
	if a.IsEmpty() {
		a.MakeEmpty()
	}
	return a
}

// pathFromRoot locates node n in the relation's forest: the index of its
// root and the child-index path from that root down to n (empty when n
// is a root).
func (ar *ARel) pathFromRoot(n *ftree.Node) (int, []int, error) {
	var rev []int
	top := n
	for top.Parent != nil {
		rev = append(rev, top.Parent.ChildIndex(top))
		top = top.Parent
	}
	ri := ar.Tree.RootIndex(top)
	if ri < 0 {
		return 0, nil, fmt.Errorf("fops: node %s not in this forest", n.Label())
	}
	path := make([]int, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return ri, path, nil
}
