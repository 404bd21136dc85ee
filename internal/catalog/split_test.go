package catalog

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/workload"
)

// tupleCounts returns the multiset of tuples as key → count.
func tupleCounts(ts []relation.Tuple) map[string]int {
	m := make(map[string]int, len(ts))
	for _, t := range ts {
		m[t.Key()]++
	}
	return m
}

// TestSplitPartitions: splitting the workload catalogue preserves every
// tuple exactly once for split relations, keeps ranges contiguous and
// ordered across shards, and the manifest accounts for every row.
func TestSplitPartitions(t *testing.T) {
	db := workload.Generate(workload.Config{Scale: 1}).DB()
	c, err := Build("shop", db)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		shards, man, err := Split(c, n)
		if err != nil {
			t.Fatalf("Split(%d): %v", n, err)
		}
		if len(shards) != n || man.Shards != n || man.Catalog != "shop" {
			t.Fatalf("Split(%d): %d shards, manifest %+v", n, len(shards), man)
		}
		for _, orig := range c.Relations {
			name := orig.Rel.Name
			sr := man.Rel(name)
			if sr == nil {
				t.Fatalf("n=%d: relation %q missing from manifest", n, name)
			}
			if !reflect.DeepEqual(sr.Attrs, orig.Rel.Attrs) {
				t.Fatalf("n=%d %s: manifest attrs %v, want %v", n, name, sr.Attrs, orig.Rel.Attrs)
			}
			want := tupleCounts(orig.Rel.Tuples)
			got := map[string]int{}
			total := 0
			var prevMax values.Value
			havePrev := false
			for i, sc := range shards {
				rel := sc.DB()[name]
				if rel == nil {
					t.Fatalf("n=%d shard %d: relation %q missing", n, i, name)
				}
				if len(rel.Tuples) != sr.Rows[i] {
					t.Fatalf("n=%d shard %d %s: %d tuples, manifest says %d", n, i, name, len(rel.Tuples), sr.Rows[i])
				}
				if sr.Partition == "" {
					// Replicated: each shard holds the whole relation.
					if !reflect.DeepEqual(tupleCounts(rel.Tuples), want) {
						t.Fatalf("n=%d shard %d %s: replica differs from original", n, i, name)
					}
					continue
				}
				col := rel.ColIndex(sr.Partition)
				if col < 0 {
					t.Fatalf("n=%d %s: partition attr %q not in schema", n, name, sr.Partition)
				}
				for _, tup := range rel.Tuples {
					got[tup.Key()]++
					total++
					if havePrev && values.Compare(tup[col], prevMax) <= 0 && i > 0 {
						// Every value on shard i must order strictly
						// above every value on earlier shards.
						if values.Compare(tup[col], prevMax) < 0 {
							t.Fatalf("n=%d shard %d %s: value %s below earlier shard max %s", n, i, name, tup[col], prevMax)
						}
					}
				}
				// Track this shard's max partition value.
				for _, tup := range rel.Tuples {
					if !havePrev || values.Compare(tup[col], prevMax) > 0 {
						prevMax, havePrev = tup[col], true
					}
				}
			}
			if sr.Partition != "" {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d %s: split tuples differ from original (%d vs %d rows)", n, name, total, len(orig.Rel.Tuples))
				}
			}
		}
	}
}

// TestSplitRangesDisjoint: with a split relation, a partition value never
// appears on two shards.
func TestSplitRangesDisjoint(t *testing.T) {
	db := workload.Generate(workload.Config{Scale: 1}).DB()
	c, err := Build("shop", db)
	if err != nil {
		t.Fatal(err)
	}
	shards, man, err := Split(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range man.Relations {
		if sr.Partition == "" {
			continue
		}
		owner := map[string]int{}
		for i, sc := range shards {
			rel := sc.DB()[sr.Name]
			col := rel.ColIndex(sr.Partition)
			for _, tup := range rel.Tuples {
				k := string(tup[col].AppendKey(nil))
				if prev, ok := owner[k]; ok && prev != i {
					t.Fatalf("%s: partition value %s on shards %d and %d", sr.Name, tup[col], prev, i)
				}
				owner[k] = i
			}
		}
	}
}

// TestSplitReplicatesSmall: a relation with one distinct root value
// cannot be range-cut and is replicated.
func TestSplitReplicatesSmall(t *testing.T) {
	db := map[string]*relation.Relation{
		"Tiny": relation.MustNew("Tiny", []string{"k", "v"}, []relation.Tuple{
			{iv(7), iv(1)}, {iv(7), iv(2)},
		}),
		"Empty": relation.MustNew("Empty", []string{"x"}, nil),
	}
	c, err := Build("small", db)
	if err != nil {
		t.Fatal(err)
	}
	shards, man, err := Split(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Tiny", "Empty"} {
		if man.IsSplit(name) {
			t.Fatalf("%s was split; want replicated", name)
		}
		for i, sc := range shards {
			if got, want := len(sc.DB()[name].Tuples), len(db[name].Tuples); got != want {
				t.Fatalf("%s shard %d: %d tuples, want %d", name, i, got, want)
			}
		}
	}
}

// TestManifestRoundTrip: the manifest survives JSON and the file cycle.
func TestManifestRoundTrip(t *testing.T) {
	m := &ShardManifest{
		Catalog: "shop",
		Shards:  2,
		Relations: []ShardRelation{
			{Name: "R1", Attrs: []string{"customer", "date"}, Partition: "customer", Rows: []int{3, 4}},
			{Name: "Dim", Attrs: []string{"k"}, Rows: []int{5, 5}},
		},
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var got ShardManifest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, m) {
		t.Fatalf("JSON round trip changed the manifest:\n got %+v\nwant %+v", &got, m)
	}
	if m.IsSplit("Dim") || !m.IsSplit("R1") || m.IsSplit("nope") {
		t.Fatal("IsSplit misclassifies")
	}
}
