package catalog

// Shard splitting for scatter-gather serving. A catalogue is cut into n
// shard catalogues by range-partitioning each relation on its partition
// attribute — the first attribute of its factorisation path, i.e. the
// root union of the linear f-tree. The cut points come from the ranked
// subtree-count index (frep.WeightedSegments), so shards carry
// near-equal tuple counts even under value skew, and each shard's value
// range is contiguous: every root value on shard i orders strictly
// below every root value on shard i+1. That contiguity is what lets the
// coordinator stitch shard result streams back together in shard order
// and obtain exactly the serial output.
//
// Relations whose root union holds fewer than two distinct values
// cannot be range-cut and are replicated to every shard instead; the
// manifest records which relations were split and on which attribute,
// so the coordinator's planner can decide whether a query distributes.

import (
	"fmt"
	"sort"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// ShardRelation describes how one relation was laid out across shards.
type ShardRelation struct {
	// Name and Attrs mirror the relation's schema; Attrs in schema
	// order, which the coordinator uses as the tie-break comparator for
	// non-aggregate row merging.
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
	// Partition is the attribute the relation was range-cut on, or ""
	// if the relation is replicated whole to every shard.
	Partition string `json:"partition,omitempty"`
	// Rows holds the per-shard tuple count, len == Shards.
	Rows []int `json:"rows"`
}

// ShardManifest is the routing contract of a set of shards: which
// catalogue was cut, into how many shards, and how each relation was
// distributed. Its JSON form lets operators inspect a deployment with
// standard tools.
type ShardManifest struct {
	Catalog   string          `json:"catalog"`
	Shards    int             `json:"shards"`
	Relations []ShardRelation `json:"relations"`
}

// Rel returns the manifest entry for relation name, or nil.
func (m *ShardManifest) Rel(name string) *ShardRelation {
	for i := range m.Relations {
		if m.Relations[i].Name == name {
			return &m.Relations[i]
		}
	}
	return nil
}

// IsSplit reports whether relation name was range-partitioned (as
// opposed to replicated or unknown).
func (m *ShardManifest) IsSplit(name string) bool {
	r := m.Rel(name)
	return r != nil && r.Partition != ""
}

// Split cuts the catalogue into n shard catalogues plus the manifest
// describing the cut. Each relation with at least two distinct root
// values is range-partitioned on its first path attribute along
// count-balanced boundaries from the ranked index; smaller relations
// are replicated. Shard catalogues keep the parent's name (workers
// serve the same database name the coordinator routes on) and are
// rebuilt with Build, so every shard has its own factorisation and
// rank index over exactly its tuples.
func Split(c *Catalog, n int) ([]*Catalog, *ShardManifest, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("catalog: cannot split into %d shards", n)
	}
	dbs := make([]map[string]*relation.Relation, n)
	for i := range dbs {
		dbs[i] = make(map[string]*relation.Relation, len(c.Relations))
	}
	man := &ShardManifest{Catalog: c.Name, Shards: n}
	for _, r := range c.Relations {
		sr := ShardRelation{
			Name:  r.Rel.Name,
			Attrs: append([]string(nil), r.Rel.Attrs...),
			Rows:  make([]int, n),
		}
		parts, partAttr, err := partitionRelation(r, n)
		if err != nil {
			return nil, nil, err
		}
		sr.Partition = partAttr
		for i := 0; i < n; i++ {
			var ts []relation.Tuple
			if parts == nil {
				ts = r.Rel.Tuples // replicated
			} else {
				ts = parts[i]
			}
			sr.Rows[i] = len(ts)
			rel, err := relation.New(r.Rel.Name, r.Rel.Attrs, ts)
			if err != nil {
				return nil, nil, fmt.Errorf("catalog: shard %d of %q: %w", i, r.Rel.Name, err)
			}
			dbs[i][r.Rel.Name] = rel
		}
		man.Relations = append(man.Relations, sr)
	}
	shards := make([]*Catalog, n)
	for i := range shards {
		sc, err := Build(c.Name, dbs[i])
		if err != nil {
			return nil, nil, fmt.Errorf("catalog: building shard %d: %w", i, err)
		}
		shards[i] = sc
	}
	return shards, man, nil
}

// partitionRelation assigns each tuple of r to one of n shards by its
// root-union value range, or returns (nil, "", nil) when the relation
// must be replicated instead. The per-shard tuple slices preserve the
// relation's original tuple order.
func partitionRelation(r *Relation, n int) ([][]relation.Tuple, string, error) {
	if n < 2 || r.Fact == nil || r.Fact.Root == frep.EmptyNode {
		return nil, "", nil
	}
	st, root := r.Fact.Store, r.Fact.Root
	distinct := st.Len(root)
	if distinct < 2 {
		return nil, "", nil
	}
	partAttr := r.Fact.Order[0]
	col := r.Rel.ColIndex(partAttr)
	if col < 0 {
		return nil, "", fmt.Errorf("catalog: relation %q: partition attribute %q not in schema", r.Rel.Name, partAttr)
	}
	// The root union is the sorted distinct values of the partition
	// attribute; WeightedSegments cuts its slots into contiguous windows
	// of near-equal represented tuple count. Map slot → shard, then
	// binary-search each tuple's partition value to its slot.
	shardOfSlot := make([]int, distinct)
	for w, seg := range frep.WeightedSegments(st, root, n) {
		for s := seg[0]; s < seg[1]; s++ {
			shardOfSlot[s] = w
		}
	}
	parts := make([][]relation.Tuple, n)
	for _, t := range r.Rel.Tuples {
		v := t[col]
		slot := sort.Search(distinct, func(i int) bool {
			return values.Compare(st.Val(root, i), v) >= 0
		})
		if slot >= distinct || values.Compare(st.Val(root, slot), v) != 0 {
			return nil, "", fmt.Errorf("catalog: relation %q: value %s missing from root union; factorisation out of sync", r.Rel.Name, v)
		}
		w := shardOfSlot[slot]
		parts[w] = append(parts[w], t)
	}
	return parts, partAttr, nil
}
