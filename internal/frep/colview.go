package frep

// The columnar view: a per-store kind-run index over the value slab that
// lets hot operators process whole union value windows as raw []int64
// payloads (ints directly, floats and bools as their payload bits)
// through the vectorised kernels of internal/frep/kernel, instead of
// per-value values.Value dispatch.
//
// Like the ranked index (ranks.go), the column index is a side section
// built in one pass over the slab and is a prefix property: a store may
// keep appending after BuildCols, and windows that lie inside the
// indexed prefix keep qualifying for kernels, while windows beyond it —
// or spanning a kind change, or of String/Vec/Null kind — fall back to
// the scalar path. Kernel and scalar paths are byte-identical by
// construction (the kernels reproduce values.Compare / values.Add
// semantics bit for bit), so the dispatch is purely a performance
// decision.
//
// The index is immutable once built and shared by pointer across
// CloneInto and Snapshot; Reset drops the pointer (never truncates the
// shared slices). A Graft of an indexed store into an indexed store
// appends the grafted store's index as a further segment, so a store
// assembled from indexed bases stays kernel-eligible without a rebuild.

import (
	"math"
	"sort"
	"sync/atomic"

	"github.com/factordb/fdb/internal/frep/kernel"
	"github.com/factordb/fdb/internal/values"
)

// EnableKernels gates every vectorised fast path. It exists so tests can
// force the scalar fallback and assert byte-identical results, and so
// benchmarks can measure the kernel speedup in-process. It must only be
// toggled when no queries are in flight.
var EnableKernels = true

// KernelStatsEnabled turns on the dispatch counters below. Off by
// default so the hot path pays only an untaken branch.
var KernelStatsEnabled = false

// KernelStats counts kernel dispatches and scalar fallbacks since the
// last reset, for tests that assert the fast path actually engaged.
type KernelStats struct {
	SelectKernel      uint64 // SelectConstKernel handled the node
	SelectFallback    uint64 // SelectConstKernel declined (mixed/unindexed run)
	AggKernel         uint64 // γ leaf evaluated by kernels
	AggFallback       uint64 // γ leaf fell back to the scalar fold
	AggRanked         uint64 // count-only γ subtree answered by the ranked index
	Find              uint64 // FindValue answered via a search kernel
	FindFallback      uint64 // FindValue fell back to scalar sort.Search
	Intersect         uint64 // IntersectPairs handled the pair
	IntersectFallback uint64 // IntersectPairs declined
}

var kstats struct {
	selectKernel, selectFallback atomic.Uint64
	aggKernel, aggFallback       atomic.Uint64
	aggRanked                    atomic.Uint64
	find, findFallback           atomic.Uint64
	intersect, intersectFallback atomic.Uint64
}

// ResetKernelStats zeroes the dispatch counters.
func ResetKernelStats() {
	kstats.selectKernel.Store(0)
	kstats.selectFallback.Store(0)
	kstats.aggKernel.Store(0)
	kstats.aggFallback.Store(0)
	kstats.aggRanked.Store(0)
	kstats.find.Store(0)
	kstats.findFallback.Store(0)
	kstats.intersect.Store(0)
	kstats.intersectFallback.Store(0)
}

// ReadKernelStats returns the current dispatch counters.
func ReadKernelStats() KernelStats {
	return KernelStats{
		SelectKernel:      kstats.selectKernel.Load(),
		SelectFallback:    kstats.selectFallback.Load(),
		AggKernel:         kstats.aggKernel.Load(),
		AggFallback:       kstats.aggFallback.Load(),
		AggRanked:         kstats.aggRanked.Load(),
		Find:              kstats.find.Load(),
		FindFallback:      kstats.findFallback.Load(),
		Intersect:         kstats.intersect.Load(),
		IntersectFallback: kstats.intersectFallback.Load(),
	}
}

// colIndex is the kind-run index over nVals consecutive entries of a
// value slab: every value's raw payload, plus the window partitioned
// into maximal runs of equal kind (runEnds[i] is the end offset of run
// i relative to the window, runKinds[i] its kind). Immutable once built.
type colIndex struct {
	pay      []int64
	runEnds  []uint32
	runKinds []values.Kind
	nVals    uint32
}

// colSeg places a column index at value-slab offset off. A store's
// segments are contiguous from offset 0 and never modified in place:
// the slice holding them is capacity-clamped wherever it is shared.
type colSeg struct {
	off uint32
	*colIndex
}

// colOwner resolves the store holding the column index: overlays read
// their base's (overlays never build an index of their own, and the base
// is not appended to while overlays live).
func (s *Store) colOwner() *Store {
	if s.base != nil {
		return s.base
	}
	return s
}

// HasCols reports whether the column index covers the store's entire
// current value slab. Appending after BuildCols clears this without
// invalidating the indexed prefix.
func (s *Store) HasCols() bool {
	if s.base != nil {
		return false
	}
	n := len(s.cols)
	return n > 0 && int(s.cols[n-1].off+s.cols[n-1].nVals) == len(s.vals)
}

// BuildCols computes the column index over the store's current value
// slab in one pass. It must be called on a plain store (not an overlay).
// Safe on frozen (snapshot-loaded) stores: the index is a side section
// and the slabs are only read.
func (s *Store) BuildCols() {
	if s.base != nil {
		panic("frep: BuildCols on an overlay store")
	}
	n := len(s.vals)
	c := &colIndex{
		pay:   make([]int64, n),
		nVals: uint32(n),
	}
	var cur values.Kind
	for i, v := range s.vals {
		c.pay[i] = v.Raw()
		if k := v.Kind(); i == 0 || k != cur {
			if i > 0 {
				c.runEnds = append(c.runEnds, uint32(i))
				c.runKinds = append(c.runKinds, cur)
			}
			cur = k
		}
	}
	if n > 0 {
		c.runEnds = append(c.runEnds, uint32(n))
		c.runKinds = append(c.runKinds, cur)
	}
	s.cols = []colSeg{{0, c}}
}

// colRun returns the kind and payload slice of the value-slab window
// [off, off+n) when the column index covers it and the window lies
// inside one kind run. n must be > 0.
func (s *Store) colRun(off, n uint32) (values.Kind, []int64, bool) {
	segs := s.colOwner().cols
	i := len(segs) - 1
	for i >= 0 && segs[i].off > off {
		i--
	}
	if i < 0 || uint64(off-segs[i].off)+uint64(n) > uint64(segs[i].nVals) {
		return 0, nil, false
	}
	c := segs[i]
	off -= c.off
	ri := sort.Search(len(c.runEnds), func(i int) bool { return c.runEnds[i] > off })
	if c.runEnds[ri] < off+n {
		return 0, nil, false // window spans a kind change
	}
	end := off + n
	return c.runKinds[ri], c.pay[off:end:end], true
}

// ColRun returns the kind and raw payloads of union id's value window
// when it is covered by the column index and kind-homogeneous. The
// returned slice aliases the index; callers must not modify it.
func (s *Store) ColRun(id NodeID) (values.Kind, []int64, bool) {
	h := s.hdr(id)
	if h.nVals == 0 {
		return 0, nil, false
	}
	return s.colRun(h.valOff, h.nVals)
}

// SelectConstKernel evaluates σ_{value op c} over union id through the
// comparison kernels, returning the resulting node and true when the
// fast path applied (reusing id itself when every value passes, or
// EmptyNode when none does). It returns false — having done nothing —
// when the node's window is not covered by the column index, spans a
// kind change, or involves kinds the kernels do not handle; the caller
// then runs the scalar loop. bits is a caller-owned scratch bitmap,
// reused across calls.
func (s *Store) SelectConstKernel(id NodeID, op kernel.Op, c values.Value, bits *[]uint64) (NodeID, bool) {
	h := s.hdr(id)
	n := h.nVals
	if n == 0 {
		return EmptyNode, true
	}
	if !EnableKernels {
		return EmptyNode, false
	}
	k, pay, ok := s.colRun(h.valOff, n)
	if !ok {
		if KernelStatsEnabled {
			kstats.selectFallback.Add(1)
		}
		return EmptyNode, false
	}
	ck := c.Kind()
	sameRank := k == ck ||
		((k == values.Int || k == values.Float) && (ck == values.Int || ck == values.Float))
	if !sameRank {
		// The whole run compares with c by kind rank alone, so the verdict
		// is uniform: keep the node untouched or drop it, O(1) either way.
		if KernelStatsEnabled {
			kstats.selectKernel.Add(1)
		}
		if op.HoldsCmp(values.Compare(s.Val(id, 0), c)) {
			return id, true
		}
		return EmptyNode, true
	}
	bm := kernel.Bitmap(*bits, int(n))
	*bits = bm
	var cnt int
	switch {
	case k == values.Int && ck == values.Int,
		k == values.Bool && ck == values.Bool:
		cnt = kernel.CmpConstInt64(pay, c.Raw(), op, bm)
	case k == values.Float:
		cnt = kernel.CmpConstFloatBits(pay, c.AsFloat(), op, bm)
	case k == values.Int && ck == values.Float:
		cnt = kernel.CmpConstInt64AsFloat(pay, c.AsFloat(), op, bm)
	default: // String/Vec/Null runs: scalar path
		if KernelStatsEnabled {
			kstats.selectFallback.Add(1)
		}
		return EmptyNode, false
	}
	if KernelStatsEnabled {
		kstats.selectKernel.Add(1)
	}
	switch cnt {
	case int(n):
		return id, true
	case 0:
		return EmptyNode, true
	}
	return s.appendFiltered(id, bm, cnt), true
}

// appendFiltered appends a copy of union id keeping only the values
// whose bit is set, copying whole selected runs of the value and kid
// slabs per bitmap run instead of per value.
func (s *Store) appendFiltered(id NodeID, bm []uint64, nSel int) NodeID {
	hv := *s.hdr(id) // by value: the header pointer dangles if s.nodes grows
	nNodes, nVals, nKids := s.counts()
	if nNodes >= math.MaxUint32 ||
		nVals+nSel > math.MaxUint32 ||
		nKids+nSel*int(hv.arity) > math.MaxUint32 {
		panic("frep: Store slab overflow (2^32 entries)")
	}
	nid := NodeID(uint32(nNodes))
	s.nodes = append(s.nodes, nodeHdr{
		valOff: uint32(nVals),
		kidOff: uint32(nKids),
		nVals:  uint32(nSel),
		arity:  hv.arity,
	})
	n := int(hv.nVals)
	for pos := 0; pos < n; {
		a, b := kernel.NextRun(bm, pos, n)
		if a == b {
			break
		}
		s.vals = append(s.vals, s.valSlice(hv.valOff+uint32(a), uint32(b-a))...)
		if hv.arity > 0 {
			s.kids = append(s.kids,
				s.kidSlice(hv.kidOff+uint32(a)*hv.arity, uint32(b-a)*hv.arity)...)
		}
		pos = b
	}
	return nid
}

// FindValue locates v within union id's sorted value window, returning
// the first position whose value is not below v and whether it equals v
// — the kernel-accelerated form of sort.Search over values.Compare.
func (s *Store) FindValue(id NodeID, v values.Value) (int, bool) {
	h := s.hdr(id)
	n := h.nVals
	if n > 0 && EnableKernels {
		if k, pay, ok := s.colRun(h.valOff, n); ok {
			vk := v.Kind()
			switch {
			case k == values.Int && vk == values.Int,
				k == values.Bool && vk == values.Bool:
				if KernelStatsEnabled {
					kstats.find.Add(1)
				}
				return kernel.SearchInt64(pay, v.Raw())
			case k == values.Float && (vk == values.Float || vk == values.Int):
				if KernelStatsEnabled {
					kstats.find.Add(1)
				}
				return kernel.SearchFloatBits(pay, v.AsFloat())
			case k == values.Int && vk == values.Float:
				if KernelStatsEnabled {
					kstats.find.Add(1)
				}
				return kernel.SearchInt64AsFloat(pay, v.AsFloat())
			}
		}
	}
	if KernelStatsEnabled {
		kstats.findFallback.Add(1)
	}
	vals := s.valSlice(h.valOff, n)
	pos := sort.Search(len(vals), func(i int) bool {
		return values.Compare(vals[i], v) >= 0
	})
	return pos, pos < len(vals) && values.Compare(vals[pos], v) == 0
}

// IntersectPairs appends to out the index pairs (i, j) of equal values
// between unions x and y, and reports whether the kernels handled the
// pair. False means out is unchanged and the caller must run the scalar
// two-pointer merge. Pass out[:0] to reuse scratch.
func (s *Store) IntersectPairs(x, y NodeID, out [][2]int32) ([][2]int32, bool) {
	if !EnableKernels {
		return out, false
	}
	hx, hy := s.hdr(x), s.hdr(y)
	if hx.nVals == 0 || hy.nVals == 0 {
		return out, true // empty intersection, no pairs
	}
	kx, px, ok := s.colRun(hx.valOff, hx.nVals)
	if !ok {
		if KernelStatsEnabled {
			kstats.intersectFallback.Add(1)
		}
		return out, false
	}
	ky, py, ok := s.colRun(hy.valOff, hy.nVals)
	if !ok || kx != ky {
		if KernelStatsEnabled {
			kstats.intersectFallback.Add(1)
		}
		return out, false
	}
	switch kx {
	case values.Int, values.Bool:
		out = kernel.IntersectInt64(px, py, out)
	case values.Float:
		out = kernel.IntersectFloatBits(px, py, out)
	default:
		if KernelStatsEnabled {
			kstats.intersectFallback.Add(1)
		}
		return out, false
	}
	if KernelStatsEnabled {
		kstats.intersect.Add(1)
	}
	return out, true
}

// RemoveKidColumn appends a copy of union id with kid column col removed
// from every row (arity reduced by one), bulk-copying the value window
// and the kid slab in column-gap chunks instead of building per value.
// Used by the Remove operator's leaf rebuild.
func (s *Store) RemoveKidColumn(id NodeID, col int) NodeID {
	hv := *s.hdr(id) // by value: the header pointer dangles if s.nodes grows
	n := int(hv.nVals)
	arity := int(hv.arity)
	newArity := arity - 1
	nNodes, nVals, nKids := s.counts()
	if nNodes >= math.MaxUint32 ||
		nVals+n > math.MaxUint32 ||
		nKids+n*newArity > math.MaxUint32 {
		panic("frep: Store slab overflow (2^32 entries)")
	}
	nid := NodeID(uint32(nNodes))
	s.nodes = append(s.nodes, nodeHdr{
		valOff: uint32(nVals),
		kidOff: uint32(nKids),
		nVals:  uint32(n),
		arity:  uint32(newArity),
	})
	s.vals = append(s.vals, s.valSlice(hv.valOff, hv.nVals)...)
	if newArity == 0 || n == 0 {
		return nid
	}
	// The kept kid entries are the flat window minus positions
	// i*arity+col: a head of length col, n-1 inter-row chunks of length
	// arity (spanning row boundaries), and a tail of length arity-col-1.
	kids := s.kidSlice(hv.kidOff, uint32(n*arity))
	s.kids = append(s.kids, kids[:col]...)
	for i := 1; i < n; i++ {
		s.kids = append(s.kids, kids[(i-1)*arity+col+1:i*arity+col]...)
	}
	s.kids = append(s.kids, kids[(n-1)*arity+col+1:]...)
	return nid
}
