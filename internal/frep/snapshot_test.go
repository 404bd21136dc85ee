package frep

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// snapTestStore builds a small store exercising every value kind, shared
// children and a ViewOf alias node, returning the store and its root.
func snapTestStore(t *testing.T) (*Store, NodeID) {
	t.Helper()
	s := NewStore()
	leafA := s.AddLeaf([]values.Value{
		values.NewInt(1), values.NewInt(2), values.NewInt(42),
	})
	leafB := s.AddLeaf([]values.Value{
		values.NewFloat(1.5), values.NewFloat(2.25),
	})
	leafC := s.AddLeaf([]values.Value{
		values.NewBool(false), values.NewBool(true),
		values.NewString(""), values.NewString("hello"),
		values.NewString("snapshot\x00bytes"),
		values.NewVec([]values.Value{values.NewInt(7), values.NewString("x")}),
	})
	mid := s.Add([]values.Value{
		values.NullValue(), values.NewString("k1"), values.NewString("k2"),
	}, 2, []NodeID{leafA, leafB, leafA, leafC, leafB, leafC})
	view := s.ViewOf(mid, 1, 3)
	root := s.Add([]values.Value{values.NewInt(10), values.NewInt(20)}, 1,
		[]NodeID{mid, view})
	return s, root
}

func TestSnapshotRoundTrip(t *testing.T) {
	s, root := snapTestStore(t)
	buf, err := s.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	var w bytes.Buffer
	n, err := s.WriteTo(&w)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(buf)) || !bytes.Equal(w.Bytes(), buf) {
		t.Fatalf("WriteTo and SnapshotBytes disagree (%d vs %d bytes)", n, len(buf))
	}

	for _, zc := range []bool{false, true} {
		ld, err := LoadSnapshot(buf, zc)
		if err != nil {
			t.Fatalf("LoadSnapshot(zeroCopy=%v): %v", zc, err)
		}
		if !EqualStore(s, root, ld, root) {
			t.Fatalf("zeroCopy=%v: loaded store differs structurally", zc)
		}
		// Re-snapshot must be byte-identical: the format is canonical.
		buf2, err := ld.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("zeroCopy=%v: save→load→save is not byte-identical", zc)
		}
	}
}

func TestSnapshotRoundTripBuiltRelation(t *testing.T) {
	// A store built from a real factorisation round-trips and keeps the
	// representation invariants.
	f := ftree.New()
	f.NewRelationPath("a", "b", "c")
	var ts []relation.Tuple
	for i := 0; i < 40; i++ {
		ts = append(ts, relation.Tuple{
			values.NewInt(int64(i % 5)),
			values.NewString("b" + string(rune('a'+i%7))),
			values.NewFloat(float64(i) / 4),
		})
	}
	rel := relation.MustNew("R", []string{"a", "b", "c"}, ts).Dedup()
	s := NewStore()
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := s.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	ld, err := LoadSnapshot(buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckStoreInvariantsAll(f, ld, roots); err != nil {
		t.Fatal(err)
	}
	if !EqualStore(s, roots[0], ld, roots[0]) {
		t.Fatal("loaded store differs structurally")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	s, _ := snapTestStore(t)
	buf, err := s.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, b []byte) {
		t.Helper()
		if _, err := LoadSnapshot(b, true); err == nil {
			t.Errorf("%s: LoadSnapshot accepted corrupt input", name)
		}
	}

	// Truncations at every interesting boundary.
	for _, n := range []int{0, 4, snapHeaderLen - 1, snapHeaderLen, len(buf) / 2, len(buf) - 1} {
		check("truncated", buf[:n])
	}
	// Bad magic.
	bad := bytes.Clone(buf)
	bad[0] ^= 0xff
	check("magic", bad)
	// Version skew (header CRC recomputed so only the version differs).
	bad = bytes.Clone(buf)
	bad[8] = 99
	rechecksumHeader(bad)
	check("version", bad)
	// Unknown flags.
	bad = bytes.Clone(buf)
	bad[10] = 1
	rechecksumHeader(bad)
	check("flags", bad)
	// Flipped payload byte: CRC must catch it.
	bad = bytes.Clone(buf)
	bad[len(bad)-9] ^= 0x40
	check("payload-bitflip", bad)
	// Flipped header byte: header CRC must catch it.
	bad = bytes.Clone(buf)
	bad[17] ^= 0x01
	check("header-bitflip", bad)
	// Trailing garbage: the slice is the whole snapshot by contract.
	check("overlong", append(bytes.Clone(buf), 0))
}

func TestSnapshotFrozenStore(t *testing.T) {
	s, root := snapTestStore(t)
	buf, err := s.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	ld, err := LoadSnapshot(buf, true)
	if err != nil {
		t.Fatal(err)
	}
	// Grafting out of a frozen store is allowed…
	dst := NewStore()
	remap := dst.Graft(ld)
	if !EqualStore(s, root, dst, remap(root)) {
		t.Fatal("graft from loaded store differs")
	}
	// …appending to it reallocates rather than writing through…
	before := ld.NodeCount()
	ld.AddLeaf([]values.Value{values.NewInt(1)})
	if ld.NodeCount() != before+1 {
		t.Fatal("append to loaded store failed")
	}
	// …but Reset must panic.
	ld2, err := LoadSnapshot(buf, true)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset of a frozen store did not panic")
			}
		}()
		ld2.Reset()
	}()
}

func TestValueSectionRoundTrip(t *testing.T) {
	vals := []values.Value{
		values.NullValue(),
		values.NewBool(true),
		values.NewInt(-5),
		values.NewFloat(3.75),
		values.NewString("αβγ"),
		values.NewVec([]values.Value{
			values.NewVec([]values.Value{values.NewString("deep")}),
			values.NewInt(9),
		}),
	}
	recs, heap, err := AppendValueSection(nil, nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	for _, zc := range []bool{false, true} {
		got, err := DecodeValueSection(recs, heap, len(vals), zc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if values.Compare(vals[i], got[i]) != 0 {
				t.Fatalf("zeroCopy=%v: value %d: got %v, want %v", zc, i, got[i], vals[i])
			}
		}
	}
	if _, err := DecodeValueSection(recs[:len(recs)-1], heap, len(vals), false); err == nil {
		t.Fatal("short record section accepted")
	}
}

// rechecksumHeader recomputes the header CRC after a deliberate header
// edit, so the test reaches the field check behind it.
func rechecksumHeader(b []byte) {
	crc := crc32.Checksum(b[0:60], crcTable)
	binary.LittleEndian.PutUint32(b[60:64], crc)
}
