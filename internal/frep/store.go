package frep

// This file implements the arena-backed factorised store: all unions of
// a forest live in three contiguous slabs — node headers, a flat value
// slab and a flat child-reference slab — instead of one heap object per
// union linked by pointers. Children are addressed by uint32 node
// indices, so a whole forest clones with three slab copies, snapshots in
// O(1), and traversals walk dense arrays instead of chasing pointers.
//
// A Store is append-only: nodes are immutable once added, and operators
// derive new representations by appending nodes that reference existing
// ones (structure sharing without per-node allocation).

import (
	"fmt"
	"math"
	"slices"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/values"
)

// NodeID addresses one union node within a Store.
type NodeID uint32

// EmptyNode is the canonical empty union; it is present in every Store
// and shared by all arities (an empty union has no values and therefore
// no kid rows).
const EmptyNode NodeID = 0

// nodeHdr is one union's header: its value range in the value slab, its
// kid-reference range in the kid slab, and its arity (kid references per
// value; 0 for f-tree leaves).
type nodeHdr struct {
	valOff uint32
	kidOff uint32
	nVals  uint32
	arity  uint32
}

// Store holds the unions of one or more forests in contiguous slabs.
// It is append-only; nodes are immutable once added. A Store must not
// be appended to concurrently, but any number of goroutines may read it
// (or append to private Snapshots or Overlays of it) in parallel.
//
// A Store created by Overlay is a two-tier view: node ids and slab
// offsets below the base lengths resolve into the base store's slabs in
// place, while appends land in the overlay's private slabs, continuing
// the base's address space. Plain stores have base == nil and all three
// base lengths zero, so the tier checks below reduce to always-false
// compares on the hot read path.
type Store struct {
	nodes []nodeHdr
	vals  []values.Value
	kids  []NodeID

	// Ranked index (see ranks.go): per-value subtree tuple prefix sums
	// over the leading len(ranks) entries of the value slab, plus the
	// kid-slab length covered when the index was built. Empty when no
	// index has been built.
	ranks      []uint64
	rankedKids uint32

	// Column index (see colview.go): raw payloads and kind runs over a
	// prefix of the value slab, one segment per indexed store a graft
	// brought in, enabling vectorised kernels. Immutable once built;
	// shared across CloneInto and Snapshot; nil when no index has been
	// built.
	cols []colSeg

	// dirtyVals is the high-water mark of value-slab entries that may
	// hold non-zero data beyond the current length: CloneInto is the only
	// operation that shrinks vals, and it records the pre-shrink length
	// here so Reset clears exactly the used prefix instead of the full
	// capacity (pooled stores typically reuse a large slab for small
	// intermediate results).
	dirtyVals int

	// Overlay state: the read-only lower tier and its slab lengths at
	// the time the overlay was taken. Nil/zero for plain stores.
	base      *Store
	baseNodes uint32
	baseVals  uint32
	baseKids  uint32

	// frozen marks a store loaded from a snapshot (LoadSnapshot): its
	// slabs may alias read-only mapped memory, so Reset — the only
	// operation that writes in place — is forbidden. All other
	// operations append, and the slabs are capacity-clamped so appends
	// reallocate instead of writing through.
	frozen bool
}

// hdr resolves a node header across the two tiers.
func (s *Store) hdr(id NodeID) *nodeHdr {
	if uint32(id) < s.baseNodes {
		return &s.base.nodes[id]
	}
	return &s.nodes[uint32(id)-s.baseNodes]
}

// valSlice resolves a value range across the two tiers. A node's values
// never span tiers (nodes are appended whole), so one compare picks the
// slab.
func (s *Store) valSlice(off, n uint32) []values.Value {
	if off < s.baseVals {
		return s.base.vals[off : off+n : off+n]
	}
	o := off - s.baseVals
	return s.vals[o : o+n : o+n]
}

// kidSlice resolves a kid-reference range across the two tiers.
func (s *Store) kidSlice(off, n uint32) []NodeID {
	if off < s.baseKids {
		return s.base.kids[off : off+n : off+n]
	}
	o := off - s.baseKids
	return s.kids[o : o+n : o+n]
}

// counts returns the absolute slab lengths (base plus private tiers).
func (s *Store) counts() (nodes, vals, kids int) {
	return int(s.baseNodes) + len(s.nodes),
		int(s.baseVals) + len(s.vals),
		int(s.baseKids) + len(s.kids)
}

// NewStore returns an empty store containing only the canonical empty
// union node.
func NewStore() *Store {
	return &Store{nodes: make([]nodeHdr, 1, 64)}
}

// Reset truncates the store back to only the empty node, keeping slab
// capacity for reuse (the engine pools stores across queries). The value
// slab is cleared so pooled stores do not pin string or vector memory.
func (s *Store) Reset() {
	if s.base != nil {
		panic("frep: Reset of an overlay store")
	}
	if s.frozen {
		panic("frep: Reset of a frozen (snapshot-loaded) store")
	}
	w := len(s.vals)
	if s.dirtyVals > w {
		w = s.dirtyVals
	}
	clear(s.vals[:w])
	s.dirtyVals = 0
	s.nodes = append(s.nodes[:0], nodeHdr{})
	s.vals = s.vals[:0]
	s.kids = s.kids[:0]
	s.ranks = s.ranks[:0]
	s.rankedKids = 0
	s.cols = nil
}

// Len returns the number of values in union id.
func (s *Store) Len(id NodeID) int { return int(s.hdr(id).nVals) }

// Arity returns the number of child references per value of union id.
func (s *Store) Arity(id NodeID) int { return int(s.hdr(id).arity) }

// Vals returns the value slice of union id as a view into the value
// slab. The caller must not modify it.
func (s *Store) Vals(id NodeID) []values.Value {
	h := s.hdr(id)
	return s.valSlice(h.valOff, h.nVals)
}

// Val returns value i of union id.
func (s *Store) Val(id NodeID, i int) values.Value {
	h := s.hdr(id)
	return s.valSlice(h.valOff, h.nVals)[i]
}

// KidRow returns the child references for value i of union id as a view
// into the kid slab. The caller must not modify it.
func (s *Store) KidRow(id NodeID, i int) []NodeID {
	h := s.hdr(id)
	return s.kidSlice(h.kidOff+uint32(i)*h.arity, h.arity)
}

// Kid returns the j-th child reference of value i of union id.
func (s *Store) Kid(id NodeID, i, j int) NodeID {
	h := s.hdr(id)
	off := h.kidOff + uint32(i)*h.arity + uint32(j)
	if off < s.baseKids {
		return s.base.kids[off]
	}
	return s.kids[off-s.baseKids]
}

// NodeCount returns the number of nodes in the store (including the
// empty node, and the base tier for overlays).
func (s *Store) NodeCount() int { return int(s.baseNodes) + len(s.nodes) }

// MemStats reports the slab sizes (base plus private tiers), for
// diagnostics.
func (s *Store) MemStats() (nodes, vals, kids int) { return s.counts() }

// Add appends a union node holding the given sorted values; kids holds
// the concatenated child rows (arity references per value, value-major)
// and must have length len(vals)*arity. Both slices are copied into the
// slabs, so callers may reuse their scratch. An empty vals returns
// EmptyNode. Add panics on malformed input or on slab overflow (more
// than 2³²−1 entries) — both are programming errors, not data errors.
func (s *Store) Add(vals []values.Value, arity int, kids []NodeID) NodeID {
	if len(vals) == 0 {
		return EmptyNode
	}
	if len(kids) != len(vals)*arity {
		panic(fmt.Sprintf("frep: Store.Add: %d kid refs for %d values × arity %d", len(kids), len(vals), arity))
	}
	nNodes, nVals, nKids := s.counts()
	if nNodes >= math.MaxUint32 ||
		nVals+len(vals) > math.MaxUint32 ||
		nKids+len(kids) > math.MaxUint32 {
		panic("frep: Store slab overflow (2^32 entries)")
	}
	id := NodeID(uint32(nNodes))
	s.nodes = append(s.nodes, nodeHdr{
		valOff: uint32(nVals),
		kidOff: uint32(nKids),
		nVals:  uint32(len(vals)),
		arity:  uint32(arity),
	})
	s.vals = append(s.vals, vals...)
	s.kids = append(s.kids, kids...)
	return id
}

// AddLeaf appends a leaf union (arity 0) holding the given sorted
// values.
func (s *Store) AddLeaf(vals []values.Value) NodeID { return s.Add(vals, 0, nil) }

// Clone returns a deep copy of the store: three slab copies, regardless
// of how many nodes it holds.
func (s *Store) Clone() *Store {
	out := &Store{}
	s.CloneInto(out)
	return out
}

// CopyReachable returns a fresh store of just the nodes reachable from
// roots, each copied once in post-order (so shared subtrees stay shared
// and copying a copy reproduces it), and the roots' ids in it. A sizing
// walk comes first, so the copy's slabs hold exactly what it copies: the
// source may be mostly dead nodes (a written relation's overlay keeps
// every node appended since its last compaction).
func (s *Store) CopyReachable(roots []NodeID) (*Store, []NodeID) {
	nn, _, _ := s.counts()
	seen := make([]bool, nn)
	nNodes, nVals, nKids := 1, 0, 0
	stack := slices.Clone(roots)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		h := s.hdr(id)
		if seen[id] || h.nVals == 0 {
			continue
		}
		seen[id] = true
		nNodes++
		nVals += int(h.nVals)
		nKids += int(h.nVals * h.arity)
		stack = append(stack, s.kidSlice(h.kidOff, h.nVals*h.arity)...)
	}
	out := &Store{nodes: make([]nodeHdr, 1, nNodes), vals: make([]values.Value, 0, nVals), kids: make([]NodeID, 0, nKids)}
	ids := make([]NodeID, nn) // 0 until copied
	var cp func(id NodeID) NodeID
	cp = func(id NodeID) NodeID {
		if h := s.hdr(id); ids[id] == EmptyNode && h.nVals > 0 {
			kids := slices.Clone(s.kidSlice(h.kidOff, h.nVals*h.arity))
			for i, k := range kids {
				kids[i] = cp(k)
			}
			ids[id] = out.Add(s.valSlice(h.valOff, h.nVals), int(h.arity), kids)
		}
		return ids[id]
	}
	outRoots := make([]NodeID, len(roots))
	for i, r := range roots {
		outRoots[i] = cp(r)
	}
	return out, outRoots
}

// CloneInto copies the store's slabs into dst, reusing dst's capacity
// (dst typically comes from a sync.Pool).
func (s *Store) CloneInto(dst *Store) {
	if s.base != nil || dst.base != nil {
		panic("frep: Clone of or into an overlay store")
	}
	// Record how far dst's value slab was previously used before
	// truncating: the next Reset must clear up to that mark (entries
	// beyond the new length could otherwise pin strings and vectors).
	if l := len(dst.vals); l > dst.dirtyVals {
		dst.dirtyVals = l
	}
	dst.nodes = append(dst.nodes[:0], s.nodes...)
	dst.vals = append(dst.vals[:0], s.vals...)
	dst.kids = append(dst.kids[:0], s.kids...)
	dst.ranks = append(dst.ranks[:0], s.ranks...)
	dst.rankedKids = s.rankedKids
	dst.cols = s.cols[:len(s.cols):len(s.cols)]
}

// Snapshot returns an O(1) immutable view of the store's current
// contents. Both the original and the snapshot may continue to append
// independently: the snapshot's slices are capacity-clamped, so the
// first append to either side copies out of the shared backing arrays
// instead of writing into them. Because nodes are never mutated in
// place, a snapshot is safe to read (and grow) from other goroutines
// while the original keeps appending. Overlays have no snapshot: their
// nodes are published through CopyReachable.
func (s *Store) Snapshot() *Store {
	if s.base != nil {
		panic("frep: Snapshot of an overlay store")
	}
	return &Store{
		nodes:      s.nodes[:len(s.nodes):len(s.nodes)],
		vals:       s.vals[:len(s.vals):len(s.vals)],
		kids:       s.kids[:len(s.kids):len(s.kids)],
		ranks:      s.ranks[:len(s.ranks):len(s.ranks)],
		rankedKids: s.rankedKids,
		cols:       s.cols[:len(s.cols):len(s.cols)],
		frozen:     s.frozen,
	}
}

// Overlay returns a store that reads s's current contents in place and
// appends into private slabs, continuing s's node-id and slab address
// space. It is a private append arena for one goroutine: a parallel
// operator's worker, or a mutable relation's writer. Any number of
// overlays may be taken over one base and used concurrently, provided
// the base is not appended to while they live. Taking an overlay copies
// nothing; merging its appends back costs AdoptOverlay, which is linear
// in the overlay's own output only, and CopyReachable copies out the
// nodes a root reaches. Overlays must not be Reset, Cloned, Snapshotted,
// grafted or pooled.
func (s *Store) Overlay() *Store {
	if s.base != nil {
		panic("frep: Overlay of an overlay store")
	}
	return &Store{
		base:      s,
		baseNodes: uint32(len(s.nodes)),
		baseVals:  uint32(len(s.vals)),
		baseKids:  uint32(len(s.kids)),
	}
}

// AdoptOverlay appends the overlay's private slabs into s (which must be
// the overlay's base) and returns a remapping from overlay node ids to
// their ids in s. Ids below the overlay's base length name s's own nodes
// and map to themselves. Overlays are adopted one at a time; the base
// may have grown through earlier adoptions, the remap accounts for the
// shift. The overlay must not be used after adoption.
func (s *Store) AdoptOverlay(o *Store) func(NodeID) NodeID {
	if o.base != s {
		panic("frep: AdoptOverlay of a foreign overlay")
	}
	if len(s.nodes)+len(o.nodes) > math.MaxUint32 ||
		len(s.vals)+len(o.vals) > math.MaxUint32 ||
		len(s.kids)+len(o.kids) > math.MaxUint32 {
		panic("frep: Store slab overflow (2^32 entries)")
	}
	nodeBase := uint32(len(s.nodes))
	valBase := uint32(len(s.vals))
	kidBase := uint32(len(s.kids))
	remap := func(id NodeID) NodeID {
		if uint32(id) < o.baseNodes {
			return id
		}
		return NodeID(uint32(id) - o.baseNodes + nodeBase)
	}
	for _, h := range o.nodes {
		// Headers pointing into the base tier (segment views) keep their
		// offsets; private-tier offsets shift to the adoption point.
		if h.valOff >= o.baseVals {
			h.valOff = h.valOff - o.baseVals + valBase
		}
		if h.kidOff >= o.baseKids {
			h.kidOff = h.kidOff - o.baseKids + kidBase
		}
		s.nodes = append(s.nodes, h)
	}
	s.vals = append(s.vals, o.vals...)
	for _, k := range o.kids {
		s.kids = append(s.kids, remap(k))
	}
	return remap
}

// ViewOf appends a node aliasing the value window [lo, hi) of node id:
// an O(1) segment view (no value or kid copies) used to hand contiguous
// root slices to parallel workers. The whole window returns id itself
// and an empty window returns EmptyNode; neither appends.
func (s *Store) ViewOf(id NodeID, lo, hi int) NodeID {
	h := s.hdr(id)
	if lo < 0 || hi > int(h.nVals) || lo > hi {
		panic(fmt.Sprintf("frep: ViewOf window [%d,%d) out of range for %d values", lo, hi, h.nVals))
	}
	if lo >= hi {
		return EmptyNode
	}
	if lo == 0 && hi == int(h.nVals) {
		return id
	}
	nNodes, _, _ := s.counts()
	if nNodes >= math.MaxUint32 {
		panic("frep: Store slab overflow (2^32 entries)")
	}
	nid := NodeID(uint32(nNodes))
	s.nodes = append(s.nodes, nodeHdr{
		valOff: h.valOff + uint32(lo),
		kidOff: h.kidOff + uint32(lo)*h.arity,
		nVals:  uint32(hi - lo),
		arity:  h.arity,
	})
	return nid
}

// Graft appends the contents of other into s and returns a remapping
// function from other's node ids to s's. Used by Product when the two
// factorised relations live in different stores, and by executions
// assembling their working store from several base factorisations.
// other is unchanged; neither side may be an overlay.
func (s *Store) Graft(other *Store) func(NodeID) NodeID {
	if s.base != nil || other.base != nil {
		panic("frep: Graft into or from an overlay store")
	}
	if len(s.nodes)+len(other.nodes) > math.MaxUint32 ||
		len(s.vals)+len(other.vals) > math.MaxUint32 ||
		len(s.kids)+len(other.kids) > math.MaxUint32 {
		panic("frep: Store slab overflow (2^32 entries)")
	}
	// When both sides carry a complete ranked (column) index, the graft
	// extends it (grafted windows keep their internal sums, shifted by
	// s's running total; grafted payloads keep their index as a further
	// segment), so grafted bases stay seekable and kernel-eligible.
	extendRanks := s.HasRanks() && other.HasRanks()
	extendCols := s.HasCols() && other.HasCols()
	nodeBase := uint32(len(s.nodes))
	valBase := uint32(len(s.vals))
	kidBase := uint32(len(s.kids))
	remap := func(id NodeID) NodeID {
		if id == EmptyNode {
			return EmptyNode
		}
		return NodeID(uint32(id) - 1 + nodeBase)
	}
	for _, h := range other.nodes[1:] {
		s.nodes = append(s.nodes, nodeHdr{
			valOff: h.valOff + valBase,
			kidOff: h.kidOff + kidBase,
			nVals:  h.nVals,
			arity:  h.arity,
		})
	}
	s.vals = append(s.vals, other.vals...)
	for _, k := range other.kids {
		s.kids = append(s.kids, remap(k))
	}
	if extendRanks {
		s.extendRanksForGraft(other)
	}
	if extendCols {
		for _, c := range other.cols {
			s.cols = append(s.cols, colSeg{c.off + valBase, c.colIndex})
		}
	}
	return remap
}

// CountPlain returns the cardinality of the relation represented by
// union id, treating every node (including aggregate nodes) as holding
// plain values — i.e. without the Section 3.1 interpretation of
// aggregate attributes. Use CountStore for the paper's count algorithm.
func (s *Store) CountPlain(id NodeID) int64 {
	n := s.Len(id)
	if s.Arity(id) == 0 {
		return int64(n)
	}
	var total int64
	for i := 0; i < n; i++ {
		prod := int64(1)
		for _, k := range s.KidRow(id, i) {
			prod *= s.CountPlain(k)
		}
		total += prod
	}
	return total
}

// Singletons returns the number of singletons below union id — the
// paper's size measure.
func (s *Store) Singletons(id NodeID) int {
	n := s.Len(id)
	for i := 0; i < s.Len(id); i++ {
		for _, k := range s.KidRow(id, i) {
			n += s.Singletons(k)
		}
	}
	return n
}

// SingletonsAll sums Singletons over a forest representation.
func (s *Store) SingletonsAll(roots []NodeID) int {
	n := 0
	for _, r := range roots {
		n += s.Singletons(r)
	}
	return n
}

// EqualStore reports deep structural equality of union x in store a and
// union y in store b.
func EqualStore(a *Store, x NodeID, b *Store, y NodeID) bool {
	if a == b && x == y {
		return true
	}
	if a.Len(x) != b.Len(y) {
		return false
	}
	av, bv := a.Vals(x), b.Vals(y)
	for i := range av {
		if values.Compare(av[i], bv[i]) != 0 {
			return false
		}
	}
	if a.Arity(x) != b.Arity(y) {
		return false
	}
	for i := 0; i < a.Len(x); i++ {
		ar, br := a.KidRow(x, i), b.KidRow(y, i)
		for j := range ar {
			if !EqualStore(a, ar[j], b, br[j]) {
				return false
			}
		}
	}
	return true
}

type invKey struct {
	n  *ftree.Node
	id NodeID
}

func checkStoreInv(n *ftree.Node, s *Store, id NodeID, top bool, seen map[invKey]bool) error {
	if seen[invKey{n, id}] {
		return nil
	}
	seen[invKey{n, id}] = true
	if !top && s.Len(id) == 0 {
		return fmt.Errorf("frep: empty union below top level at node %s", n.Label())
	}
	vals := s.Vals(id)
	for i := 1; i < len(vals); i++ {
		if values.Compare(vals[i-1], vals[i]) >= 0 {
			return fmt.Errorf("frep: values not strictly ascending at node %s: %v ≥ %v",
				n.Label(), vals[i-1], vals[i])
		}
	}
	if len(vals) == 0 {
		return nil
	}
	if s.Arity(id) != len(n.Children) {
		return fmt.Errorf("frep: node %s has arity %d, want %d children", n.Label(), s.Arity(id), len(n.Children))
	}
	for i := range vals {
		for j, k := range s.KidRow(id, i) {
			if err := checkStoreInv(n.Children[j], s, k, false, seen); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckStoreInvariantsAll verifies a forest representation: root ids in
// the store, values strictly ascending, arities matching the f-tree, no
// empty unions below the top; shared subtrees are checked once.
func CheckStoreInvariantsAll(f *ftree.Forest, s *Store, roots []NodeID) error {
	if len(roots) != len(f.Roots) {
		return fmt.Errorf("frep: %d root unions for %d f-tree roots", len(roots), len(f.Roots))
	}
	seen := map[invKey]bool{}
	for i, r := range f.Roots {
		if int(roots[i]) >= s.NodeCount() {
			return fmt.Errorf("frep: root %d outside store of %d nodes", roots[i], s.NodeCount())
		}
		if err := checkStoreInv(r, s, roots[i], true, seen); err != nil {
			return err
		}
	}
	return nil
}

// UnionBuilder accumulates (value, kid-row) pairs in ascending value
// order and writes them out as one union node. Its scratch buffers are
// reused across Finish calls, so a builder local to an operator loop
// allocates only on high-water-mark growth.
type UnionBuilder struct {
	s     *Store
	arity int
	vals  []values.Value
	kids  []NodeID
}

// Reset points the builder at a store and arity, discarding any
// accumulated state but keeping scratch capacity.
func (b *UnionBuilder) Reset(s *Store, arity int) {
	b.s = s
	b.arity = arity
	b.vals = b.vals[:0]
	b.kids = b.kids[:0]
}

// Append adds one value and its kid row (which must have length arity;
// nil for arity 0). Values must be appended in strictly ascending order;
// the builder does not re-sort.
func (b *UnionBuilder) Append(v values.Value, row []NodeID) {
	b.vals = append(b.vals, v)
	b.kids = append(b.kids, row...)
}

// Len returns the number of values appended since the last Reset or
// Finish.
func (b *UnionBuilder) Len() int { return len(b.vals) }

// Finish writes the accumulated union into the store and resets the
// builder for the next union (same store and arity).
func (b *UnionBuilder) Finish() NodeID {
	id := b.s.Add(b.vals, b.arity, b.kids)
	b.vals = b.vals[:0]
	b.kids = b.kids[:0]
	return id
}
