package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/workload"
)

// testView is one view under test: an f-tree, a store and its roots,
// plus the flat relation it represents when there is one to check.
type testView struct {
	f     *ftree.Forest
	s     *frep.Store
	roots []frep.NodeID
	rel   *relation.Relation
}

func writeView(t testing.TB, v testView) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteView(&buf, v.f, v.s, v.roots); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pathView factorises rel over the linear path of its attributes.
func pathView(t testing.TB, rel *relation.Relation) testView {
	t.Helper()
	f := ftree.New()
	f.NewRelationPath(rel.Attrs...)
	s := frep.NewStore()
	roots, err := frep.BuildStore(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	return testView{f: f, s: s, roots: roots, rel: rel}
}

// leafView is a one-attribute view holding vals, sorted as a union's
// values must be.
func leafView(vals ...values.Value) testView {
	sort.Slice(vals, func(i, j int) bool { return values.Compare(vals[i], vals[j]) < 0 })
	f := ftree.New()
	f.NewRelationPath("x")
	s := frep.NewStore()
	return testView{f: f, s: s, roots: []frep.NodeID{s.AddLeaf(vals)}}
}

// aggView is customer → (sum(price), count) over the given aggregate
// functions, the shape a partially aggregated view stores.
func aggView(fns ...ftree.Fn) testView {
	f := ftree.New()
	tok := f.NewToken()
	cust := &ftree.Node{Attrs: []string{"customer"}, Deps: ftree.NewTokenSet(tok)}
	agg := &ftree.Node{Agg: &ftree.Agg{Over: []string{"item", "price"}}, Alias: "revenue",
		Deps: ftree.NewTokenSet(tok), Parent: cust}
	for _, fn := range fns {
		agg.Agg.Fields = append(agg.Agg.Fields, ftree.AggField{Fn: fn, Arg: "price"})
	}
	cust.Children = []*ftree.Node{agg}
	f.Roots = []*ftree.Node{cust}
	s := frep.NewStore()
	vec := func(sum, n int64) frep.NodeID {
		return s.AddLeaf([]values.Value{values.NewVec([]values.Value{values.NewInt(sum), values.NewInt(n)})})
	}
	root := s.Add([]values.Value{sv("Lucia"), sv("Mario")}, 1, []frep.NodeID{vec(9, 3), vec(22, 7)})
	return testView{f: f, s: s, roots: []frep.NodeID{root}}
}

func TestViewRoundTrip(t *testing.T) {
	r1, err := workload.Generate(workload.Config{Scale: 1}).FactorisedR1()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		views func(t *testing.T) []testView
	}{
		{"pizzeria", func(t *testing.T) []testView {
			return []testView{
				{f: r1.Tree, s: r1.Store, roots: r1.Roots},
				pathView(t, testDB()["Orders"]),
			}
		}},
		{"value_kinds", func(t *testing.T) []testView {
			// NaN is unordered against other numbers, so it gets a union
			// of its own.
			return []testView{leafView(
				values.NullValue(), bv(false), bv(true),
				iv(math.MaxInt64), iv(-math.MaxInt64), iv(math.MinInt64), iv(0),
				fv(math.Inf(-1)), fv(-0.5), fv(2.5),
				sv(""), sv("héllo\x00world"),
				values.NewVec([]values.Value{iv(1), values.NullValue(), sv("v"),
					values.NewVec([]values.Value{fv(0.25)})}),
			), leafView(fv(math.NaN()))}
		}},
		{"agg_nodes", func(t *testing.T) []testView {
			return []testView{aggView(ftree.Sum, ftree.Count), aggView(ftree.Min, ftree.Max)}
		}},
		{"empty_relation", func(t *testing.T) []testView {
			return []testView{pathView(t, testDB()["Empty"])}
		}},
		{"random_relations", func(t *testing.T) []testView {
			rng := rand.New(rand.NewSource(1))
			var out []testView
			for k := 0; k < 100; k++ {
				ts := make([]relation.Tuple, 1+rng.Intn(25))
				for i := range ts {
					ts[i] = relation.Tuple{iv(int64(rng.Intn(5))), fv(float64(rng.Intn(9)) / 2),
						sv(string(rune('a' + rng.Intn(4))))}
				}
				out = append(out, pathView(t, relation.MustNew("R", []string{"x", "y", "z"}, ts).Dedup()))
			}
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range tc.views(t) {
				raw := writeView(t, v)
				f, s, roots, err := ReadView(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				if f.String() != v.f.String() || f.CanonicalKey() != v.f.CanonicalKey() {
					t.Fatalf("f-tree changed:\n%s\nvs\n%s", v.f, f)
				}
				for i := range roots {
					if !frep.EqualStore(v.s, v.roots[i], s, roots[i]) {
						t.Fatalf("representation changed at root %d", i)
					}
				}
				if v.rel != nil {
					flat, err := frep.FlattenStore(f, s, roots)
					if err != nil {
						t.Fatal(err)
					}
					if !relation.EqualAsSets(flat, v.rel) {
						t.Fatal("loaded view no longer represents the relation")
					}
				}
				if again := writeView(t, testView{f: f, s: s, roots: roots}); !bytes.Equal(again, raw) {
					t.Fatal("writing the loaded view changed its bytes")
				}
			}
		})
	}
}

func TestReadViewRejects(t *testing.T) {
	good := writeView(t, pathView(t, testDB()["Orders"]))
	flipped := bytes.Clone(good)
	flipped[viewHeaderLen] ^= 0x10
	unsorted := leafView()
	unsorted.roots[0] = unsorted.s.AddLeaf([]values.Value{iv(2), iv(1)})
	// A root id past the store, and a store carrying a node no root
	// reaches: both framed by hand, since WriteView never produces them.
	// A one-leaf view's block ends in its root id, 1.
	leaf := writeView(t, leafView(iv(1)))
	blockEnd := viewHeaderLen + int(binary.LittleEndian.Uint32(leaf[8:]))
	badRoot := bytes.Clone(leaf)
	badRoot[blockEnd-1] = 2
	binary.LittleEndian.PutUint32(badRoot[12:], crc32.Checksum(badRoot[viewHeaderLen:blockEnd], crcTable))
	dead := leafView(iv(1))
	dead.s.AddLeaf([]values.Value{iv(7)})
	var deadSnap bytes.Buffer
	if _, err := dead.s.WriteTo(&deadSnap); err != nil {
		t.Fatal(err)
	}
	deadNode := append(leaf[:blockEnd:blockEnd], deadSnap.Bytes()...)

	cases := []struct {
		name, input, want string
	}{
		{"empty_input", "", "truncated header"},
		{"bad_magic", "FDBV1\n" + string(good[6:]), "bad magic"},
		{"trailing_byte", string(good) + "\x00", "bytes for header-declared"},
		{"flipped_block_bit", string(flipped), "checksum mismatch"},
		{"unsorted_union", string(writeView(t, unsorted)), "not strictly ascending"},
		{"root_id_past_store", string(badRoot), "outside store"},
		{"dead_node", string(deadNode), "canonical"},
	}
	for _, fn := range []ftree.Fn{ftree.Count, ftree.Avg, 9, 255} {
		name, want := fmt.Sprintf("agg_fn_%d", uint8(fn)), "not a storable field"
		if fn.Storable() {
			want = ""
		}
		cases = append(cases, struct{ name, input, want string }{name, string(writeView(t, aggView(fn))), want})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := ReadView(strings.NewReader(tc.input))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(good); cut++ {
			if _, _, _, err := ReadView(bytes.NewReader(good[:cut])); err == nil {
				t.Fatalf("view truncated to %d of %d bytes loaded", cut, len(good))
			}
		}
	})
	t.Run("root_count_mismatch", func(t *testing.T) {
		v := pathView(t, testDB()["Orders"])
		if err := WriteView(&bytes.Buffer{}, v.f, v.s, nil); err == nil {
			t.Fatal("WriteView accepted no roots for a one-root f-tree")
		}
	})
}

// TestReadViewSharedDAGIsLinear loads a 64-level path whose unions hold
// two values sharing one child: 2⁶⁴ tuples in 65 nodes. Validation must
// visit each node once, not each path.
func TestReadViewSharedDAGIsLinear(t *testing.T) {
	attrs := make([]string, 64)
	for i := range attrs {
		attrs[i] = "a" + strings.Repeat("x", i)
	}
	f := ftree.New()
	f.NewRelationPath(attrs...)
	s := frep.NewStore()
	id := s.AddLeaf([]values.Value{iv(0), iv(1)})
	for range attrs[1:] {
		id = s.Add([]values.Value{iv(0), iv(1)}, 1, []frep.NodeID{id, id})
	}
	raw := writeView(t, testView{f: f, s: s, roots: []frep.NodeID{id}})
	start := time.Now()
	if _, _, _, err := ReadView(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("reading a 65-node view took %v", d)
	}
}

// fuzzForest deterministically derives a relation over a linear path
// of one to four columns from the input bytes, or nil when the input is
// too short to be interesting.
func fuzzForest(data []byte) *relation.Relation {
	if len(data) < 4 {
		return nil
	}
	attrs := []string{"a", "b", "c", "d"}[:1+int(data[0]%4)]
	pos := 2
	next := func() byte {
		if pos >= len(data) {
			pos = 2
		}
		pos++
		return data[pos-1]
	}
	tuples := make([]relation.Tuple, 1+int(data[1]%24))
	for i := range tuples {
		t := make(relation.Tuple, len(attrs))
		for c := range t {
			// Mix value kinds so every value record kind is exercised.
			switch b := next(); b % 5 {
			case 0:
				t[c] = iv(int64(int8(b)))
			case 1:
				t[c] = fv(float64(b) / 3)
			case 2:
				t[c] = sv(string([]byte{'x', b}))
			case 3:
				t[c] = bv(b%2 == 0)
			default:
				t[c] = iv(int64(b) * 1000)
			}
		}
		tuples[i] = t
	}
	return relation.MustNew("F", attrs, tuples).Dedup()
}

// FuzzReadView feeds arbitrary bytes to ReadView: it must never panic,
// and every input it accepts must re-encode to the same bytes.
func FuzzReadView(f *testing.F) {
	for _, path := range []string{"../../testdata/view_v2.bin", "../../testdata/view_v2_agg.bin"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, seed := range [][]byte{
		{1, 3, 7, 20, 40, 80, 160, 5},
		{3, 20, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 251, 252, 253},
		{0, 0, 0, 0},
		{2, 10, 127, 128, 129, 200, 0, 0, 0, 64},
	} {
		f.Add(writeView(f, pathView(f, fuzzForest(seed))))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, s, roots, err := ReadView(bytes.NewReader(data))
		if err != nil {
			return
		}
		if again := writeView(t, testView{f: tree, s: s, roots: roots}); !bytes.Equal(again, data) {
			t.Fatal("an accepted view re-encodes to different bytes")
		}
	})
}
