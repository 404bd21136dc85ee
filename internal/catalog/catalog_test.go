package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/workload"
)

func iv(i int64) values.Value   { return values.NewInt(i) }
func sv(s string) values.Value  { return values.NewString(s) }
func fv(f float64) values.Value { return values.NewFloat(f) }
func bv(b bool) values.Value    { return values.NewBool(b) }
func testDB() map[string]*relation.Relation {
	orders := relation.MustNew("Orders", []string{"customer", "date", "package"}, []relation.Tuple{
		{sv("alice"), iv(20240101), iv(1)},
		{sv("bob"), iv(20240102), iv(2)},
		{sv("alice"), iv(20240103), iv(1)},
		{sv("bob"), iv(20240102), iv(2)}, // a duplicate: loading collapses it
	})
	items := relation.MustNew("Items", []string{"item", "price", "fresh"}, []relation.Tuple{
		{iv(10), fv(1.5), bv(true)},
		{iv(11), fv(2.25), bv(false)},
	})
	empty := relation.MustNew("Empty", []string{"x", "y"}, nil)
	return map[string]*relation.Relation{
		"Orders": orders, "Items": items, "Empty": empty,
	}
}

func buildBytes(t *testing.T, db map[string]*relation.Relation) (*Catalog, []byte) {
	t.Helper()
	c, err := Build("testdb", db)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return c, buf.Bytes()
}

// pathOrdered returns r's tuples sorted in the order of its attribute
// path, duplicates collapsed: the contract of a loaded relation.
func pathOrdered(r *relation.Relation) []relation.Tuple {
	ts := append([]relation.Tuple{}, r.Tuples...)
	sort.SliceStable(ts, func(i, j int) bool { return relation.Compare(ts[i], ts[j]) < 0 })
	out := ts[:0]
	for i, tp := range ts {
		if i == 0 || relation.Compare(ts[i-1], tp) != 0 {
			out = append(out, tp)
		}
	}
	return out
}

// sameDB asserts got is want as loaded: the same schemas, and per
// relation the tuples of want in path order without duplicates,
// element by element.
func sameDB(t *testing.T, want, got map[string]*relation.Relation) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("got %d relations, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("missing relation %q", name)
		}
		if len(g.Attrs) != len(w.Attrs) {
			t.Fatalf("%s: got %d attrs, want %d", name, len(g.Attrs), len(w.Attrs))
		}
		for i := range w.Attrs {
			if g.Attrs[i] != w.Attrs[i] {
				t.Fatalf("%s: attr %d is %q, want %q", name, i, g.Attrs[i], w.Attrs[i])
			}
		}
		wt := pathOrdered(w)
		if len(g.Tuples) != len(wt) {
			t.Fatalf("%s: got %d tuples, want %d", name, len(g.Tuples), len(wt))
		}
		for i := range wt {
			if relation.Compare(g.Tuples[i], wt[i]) != 0 {
				t.Fatalf("%s: tuple %d is %v, want %v", name, i, g.Tuples[i], wt[i])
			}
		}
	}
}

func TestCatalogRoundTrip(t *testing.T) {
	db := testDB()
	c, b := buildBytes(t, db)
	for _, zc := range []bool{false, true} {
		ld, err := Read(b, zc)
		if err != nil {
			t.Fatalf("Read(zeroCopy=%v): %v", zc, err)
		}
		if ld.Name != "testdb" {
			t.Fatalf("name %q", ld.Name)
		}
		sameDB(t, db, ld.DB())
		// Facts must be structurally identical to the built ones.
		for i, r := range ld.Relations {
			want := c.Relations[i]
			if !frep.EqualStore(want.Fact.Store, want.Fact.Root, r.Fact.Store, r.Fact.Root) {
				t.Fatalf("%s: loaded factorisation differs", r.Rel.Name)
			}
		}
		// Canonical: load → write reproduces the bytes exactly.
		var buf2 bytes.Buffer
		if _, err := ld.WriteTo(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, buf2.Bytes()) {
			t.Fatalf("zeroCopy=%v: save→load→save is not byte-identical", zc)
		}
	}
}

func TestCatalogWorkloadRoundTrip(t *testing.T) {
	db := workload.Generate(workload.Config{Scale: 1}).DB()
	_, b := buildBytes(t, db)
	ld, err := Read(b, true)
	if err != nil {
		t.Fatal(err)
	}
	sameDB(t, db, ld.DB())
}

func TestCatalogRejectsCorruption(t *testing.T) {
	_, b := buildBytes(t, testDB())
	check := func(name string, data []byte) {
		t.Helper()
		if _, err := Read(data, true); err == nil {
			t.Errorf("%s: Read accepted corrupt input", name)
		}
	}
	for _, n := range []int{0, 7, catHeaderLen - 1, catHeaderLen, len(b) / 3, len(b) - 1} {
		check("truncated", b[:n])
	}
	bad := bytes.Clone(b)
	bad[0] ^= 0xff
	check("magic", bad)

	// Version skew with a recomputed header CRC; a version-1 file (the
	// layout with a flat record section) is refused the same way.
	for _, v := range []byte{1, 9} {
		bad = bytes.Clone(b)
		bad[8] = v
		rechecksum(bad)
		if _, err := Read(bad, true); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("version %d: got %v, want the unsupported-version error", v, err)
		}
	}

	// Flag skew.
	bad = bytes.Clone(b)
	bad[10] = 1
	rechecksum(bad)
	check("flags", bad)

	// A flipped byte anywhere must be caught by one of the checksums.
	for _, off := range []int{9, catHeaderLen + 3, len(b) / 2, len(b) - 5} {
		bad = bytes.Clone(b)
		bad[off] ^= 0x10
		check("bitflip", bad)
	}

	// A metadata length near MaxUint64 must not wrap the bounds check
	// into a slice panic (regression: catHeaderLen+metaLen overflow).
	bad = bytes.Clone(b)
	binary.LittleEndian.PutUint64(bad[16:24], ^uint64(0)-8)
	rechecksum(bad)
	check("metaLen-overflow", bad)
}

// Fuzz-style sweep: truncating at every offset must error, never panic.
func TestCatalogTruncationSweep(t *testing.T) {
	_, b := buildBytes(t, testDB())
	step := len(b)/257 + 1
	for n := 0; n < len(b); n += step {
		if _, err := Read(b[:n], true); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
}

func FuzzCatalogRead(f *testing.F) {
	db := testDB()
	c, err := Build("fz", db)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(catMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		ld, err := Read(data, true)
		if err != nil {
			return
		}
		// Anything accepted must re-encode byte-identically and be
		// fully readable — including its rank sections, which must
		// answer count queries without out-of-range access.
		for _, r := range ld.Relations {
			st := r.Fact.Store
			for id := 0; id < st.NodeCount(); id++ {
				_, _ = st.RankTotal(frep.NodeID(id))
			}
			if st.HasRanks() {
				if _, ok := st.RankTotal(r.Fact.Root); !ok {
					t.Fatalf("relation %q: complete ranks but root total unavailable", r.Rel.Name)
				}
			}
		}
		var out bytes.Buffer
		if _, err := ld.WriteTo(&out); err != nil {
			t.Fatalf("accepted catalogue failed to re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("accepted catalogue is not canonical")
		}
	})
}

func TestWriteFileAtomicAndOpen(t *testing.T) {
	db := testDB()
	c, err := Build("disk", db)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "catalog.fdbcat")
	if err := WriteFile(path, c); err != nil {
		t.Fatal(err)
	}
	// Overwrite must go through the same atomic path.
	if err := WriteFile(path, c); err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func(string) Loader{nil, FileLoader, MmapLoader} {
		var l Loader
		if mk != nil {
			l = mk(path)
		}
		ld, err := Open(path, l)
		if err != nil {
			t.Fatal(err)
		}
		sameDB(t, db, ld.DB())
		if err := ld.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ld.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
}

// TestWriteToRequiresAttributeOrder: the file stores one attribute list
// that the loader reads as both schema and path order, so a
// factorisation in any other order is refused at write time.
func TestWriteToRequiresAttributeOrder(t *testing.T) {
	c, err := Build("testdb", testDB())
	if err != nil {
		t.Fatal(err)
	}
	f := c.Relations[0].Fact
	f.Order = append([]string{f.Order[1], f.Order[0]}, f.Order[2:]...)
	if _, err := c.WriteTo(io.Discard); err == nil {
		t.Fatal("WriteTo accepted a factorisation in a permuted order")
	}
}

// TestCatalogRejectsSharedNodes: a file of a few KiB whose root values
// all share one child chain stands for 2³² tuples; Read must reject it
// in its linear shape walk, before flattening allocates per tuple.
func TestCatalogRejectsSharedNodes(t *testing.T) {
	const width, depth = 16, 8 // 16⁸ = 2³² tuples
	st := frep.NewStore()
	vals := make([]values.Value, width)
	for i := range vals {
		vals[i] = iv(int64(i))
	}
	kid := st.Add(vals, 0, nil)
	kids := make([]frep.NodeID, width)
	for d := 1; d < depth; d++ {
		for i := range kids {
			kids[i] = kid
		}
		kid = st.Add(vals, 1, kids)
	}
	if err := st.BuildRanks(); err != nil {
		t.Fatal(err)
	}
	attrs := make([]string, depth)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	c := &Catalog{Name: "bomb", Relations: []*Relation{{
		Rel:  &relation.Relation{Name: "R", Attrs: attrs},
		Fact: &Fact{Order: attrs, Store: st, Root: kid},
	}}}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 8<<10 {
		t.Fatalf("crafted file is %d bytes, want a few KiB", buf.Len())
	}
	if n, ok := st.RankTotal(kid); !ok || n != 1<<32 {
		t.Fatalf("crafted file stands for %d tuples, want 2³²", n)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, err := Read(buf.Bytes(), true)
	if err == nil || !strings.Contains(err.Error(), "reached twice") {
		t.Fatalf("Read accepted a shared-node factorisation: %v", err)
	}
	runtime.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - before; grew > 1<<20 {
		t.Fatalf("rejecting the file allocated %d bytes", grew)
	}
}

// rechecksum recomputes the header CRC after a deliberate header edit,
// so tests reach the field checks behind it.
func rechecksum(b []byte) {
	binary.LittleEndian.PutUint32(b[28:32], crc32.Checksum(b[0:28], crcTable))
}
