package fops

// Intra-operator parallelism for the arena f-plan operators. Every
// operator that runs below a root (select, merge, absorb, swap, γ,
// compute, remove) walks the root union's values and rebuilds each
// value's subtree independently — the root union of a factorised forest
// is a disjoint union of subforests (Bakibayev et al.), so the
// occurrence loop partitions into contiguous segments that workers
// process without coordination. Each worker reads the shared base store
// in place and appends into a private overlay arena
// (frep.Store.Overlay); the coordinator adopts the overlays in segment
// order and concatenates the surviving (value, kid-row) pairs under one
// root, so the stitched union has exactly the serial rebuild's values
// in the serial order — only the node layout of the store differs.

import (
	"sync"
	"sync/atomic"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/values"
)

// MinParallelRebuildValues is the smallest root union for which an
// operator's occurrence loop fans out; below it the loop runs serially.
// Exported so tests and benchmarks can force either path.
var MinParallelRebuildValues = 2048

// MinParallelRebuildWork is the smallest represented tuple count (from
// the ranked index, when it covers the root) for which the occurrence
// loop fans out: a wide but shallow root clears the value floor yet
// holds too little work per value to amortise the overlay fan-out. When
// the root is not ranked, only the value floor applies.
var MinParallelRebuildWork = int64(1) << 17

// rebuildWorkers counts operator segment workers spawned, for the
// server's per-query worker accounting.
var rebuildWorkers atomic.Int64

// ParallelRebuildWorkers returns the cumulative number of parallel
// operator workers spawned.
func ParallelRebuildWorkers() int64 { return rebuildWorkers.Load() }

// parallelRebuild fans the top-level occurrence loop of rebuildIn over
// contiguous windows of the root union, one overlay store and one
// transform instance per worker, and stitches the surviving values back
// under one root. The caller guarantees len(path) > 0.
func (ar *ARel) parallelRebuild(root frep.NodeID, path []int, mk func(st *frep.Store, sc *scratch) rebuildFn) (frep.NodeID, error) {
	s := ar.Store
	// Count-balanced windows when the store carries a ranked index (so a
	// hot root value does not serialise the rebuild on one worker), with
	// the uniform split as the unranked fallback.
	segs := frep.WeightedSegments(s, root, ar.Par)
	if len(segs) < 2 {
		return serialRebuild(s, root, path, mk)
	}
	p := path[0]
	arity := s.Arity(root)
	type partial struct {
		st   *frep.Store
		vals []values.Value
		kids []frep.NodeID
		err  error
	}
	parts := make([]partial, len(segs))
	rebuildWorkers.Add(int64(len(segs)))
	var wg sync.WaitGroup
	for w, sg := range segs {
		w, sg := w, sg
		wg.Add(1)
		go func() {
			defer wg.Done()
			pt := &parts[w]
			st := s.Overlay()
			sc := scratchPool.Get().(*scratch)
			defer func() {
				sc.unpin()
				scratchPool.Put(sc)
			}()
			fn := mk(st, sc)
			pt.st = st
			for i := sg[0]; i < sg[1]; i++ {
				row := s.KidRow(root, i)
				nk, err := rebuildIn(st, sc, row[p], path[1:], fn)
				if err != nil {
					pt.err = err
					return
				}
				if st.Len(nk) == 0 {
					continue // prune this value
				}
				pt.vals = append(pt.vals, s.Val(root, i))
				off := len(pt.kids)
				pt.kids = append(pt.kids, row...)
				pt.kids[off+p] = nk
			}
		}()
	}
	wg.Wait()
	for w := range parts {
		if parts[w].err != nil {
			return frep.EmptyNode, parts[w].err
		}
	}
	var vals []values.Value
	var kids []frep.NodeID
	for w := range parts {
		pt := &parts[w]
		remap := s.AdoptOverlay(pt.st)
		vals = append(vals, pt.vals...)
		for _, k := range pt.kids {
			kids = append(kids, remap(k))
		}
	}
	return s.Add(vals, arity, kids), nil
}
