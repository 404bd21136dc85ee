package frep

import (
	"bytes"
	"testing"

	"github.com/factordb/fdb/internal/values"
)

// FuzzSnapshotRoundTrip feeds arbitrary bytes to the snapshot loader:
// corrupt, truncated or version-skewed input must return an error —
// never panic and never produce a store that panics when read — and any
// input that does load must re-encode byte-identically (the format is
// canonical).
func FuzzSnapshotRoundTrip(f *testing.F) {
	seed := func(build func(s *Store)) {
		s := NewStore()
		build(s)
		b, err := s.SnapshotBytes()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(func(s *Store) {}) // empty store
	build := func(s *Store) {
		leaf := s.AddLeaf([]values.Value{values.NewInt(1), values.NewInt(2)})
		strs := s.AddLeaf([]values.Value{
			values.NewString("a"), values.NewString("bb"),
			values.NewVec([]values.Value{values.NewFloat(0.5), values.NullValue()}),
		})
		s.Add([]values.Value{values.NewInt(0), values.NewBool(true)}, 2,
			[]NodeID{leaf, strs, strs, leaf})
	}
	seed(build)
	seed(func(s *Store) { // same store with a ranks section (version 2)
		build(s)
		if err := s.BuildRanks(); err != nil {
			f.Fatal(err)
		}
	})
	// Structurally plausible garbage so the fuzzer starts near the
	// format's edge cases, not at random noise.
	f.Add([]byte(snapMagic))
	f.Add(append([]byte(snapMagic), make([]byte, snapHeaderLen)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, zc := range []bool{false, true} {
			st, err := LoadSnapshot(data, zc)
			if err != nil {
				continue
			}
			// Anything that loads must be fully readable without panics…
			walkStore(st)
			// …and must re-encode to exactly the accepted bytes.
			out, err := st.SnapshotBytes()
			if err != nil {
				t.Fatalf("zeroCopy=%v: loaded store failed to re-encode: %v", zc, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("zeroCopy=%v: accepted snapshot is not canonical", zc)
			}
		}
	})
}

// walkStore touches every node, value and kid reference of every node in
// the store, so latent out-of-range references would surface here.
func walkStore(s *Store) {
	for id := 0; id < s.NodeCount(); id++ {
		n := NodeID(id)
		vals := s.Vals(n)
		for i := range vals {
			_ = vals[i].String()
		}
		for i := 0; i < s.Len(n); i++ {
			for _, k := range s.KidRow(n, i) {
				_ = s.Len(k)
			}
		}
	}
}
