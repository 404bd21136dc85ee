package frep

// Tests for the columnar view and its kernel dispatch: the column index
// itself, randomized equivalence of the kernel fast paths against their
// scalar references over mixed-kind and NULL-bearing slabs, and the
// white-box Reset/dirtyVals watermark introduced alongside it.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/factordb/fdb/internal/frep/kernel"
	"github.com/factordb/fdb/internal/values"
)

// mixedValuePool draws values across every kind the slab can hold,
// NULLs included, with clustered repeats so kind runs form naturally.
func mixedValuePool(rng *rand.Rand) values.Value {
	switch rng.Intn(10) {
	case 0:
		return values.Value{} // NULL
	case 1:
		return values.NewBool(rng.Intn(2) == 1)
	case 2, 3:
		return values.NewFloat([]float64{-1.5, 0, 0.25, 3.75, math.Inf(1), math.Copysign(0, -1)}[rng.Intn(6)])
	case 4:
		return values.NewString(fmt.Sprintf("s%02d", rng.Intn(20)))
	default:
		return values.NewInt(int64(rng.Intn(40) - 20))
	}
}

// buildSortedLeaf appends a leaf union (arity 0) holding vs in value
// order, as unions store them.
func buildSortedLeaf(s *Store, vs []values.Value) NodeID {
	sort.Slice(vs, func(i, j int) bool { return values.Compare(vs[i], vs[j]) < 0 })
	var b UnionBuilder
	b.Reset(s, 0)
	for _, v := range vs {
		b.Append(v, nil)
	}
	return b.Finish()
}

func TestColRunIndex(t *testing.T) {
	s := NewStore()
	var b UnionBuilder
	b.Reset(s, 0)
	for _, v := range []values.Value{
		values.NewInt(1), values.NewInt(2), values.NewInt(3),
	} {
		b.Append(v, nil)
	}
	ints := b.Finish()
	b.Reset(s, 0)
	b.Append(values.NewInt(7), nil)
	b.Append(values.NewFloat(1.5), nil)
	b.Append(values.NewString("x"), nil)
	mixed := b.Finish()
	s.BuildCols()

	if !s.HasCols() {
		t.Fatal("HasCols false right after BuildCols")
	}
	k, pay, ok := s.ColRun(ints)
	if !ok || k != values.Int {
		t.Fatalf("ColRun(ints) = (%v, ok=%v), want Int run", k, ok)
	}
	if len(pay) != 3 || pay[0] != 1 || pay[2] != 3 {
		t.Fatalf("ColRun(ints) payload = %v", pay)
	}
	if _, _, ok := s.ColRun(mixed); ok {
		t.Fatal("ColRun succeeded on a window spanning kind changes")
	}
	// Appends past the index keep the prefix valid but clear HasCols;
	// the new node's window must not qualify.
	b.Reset(s, 0)
	b.Append(values.NewInt(9), nil)
	late := b.Finish()
	if s.HasCols() {
		t.Fatal("HasCols true after appending past the index")
	}
	if _, _, ok := s.ColRun(late); ok {
		t.Fatal("ColRun covered a window beyond the indexed prefix")
	}
	if _, _, ok := s.ColRun(ints); !ok {
		t.Fatal("indexed prefix stopped qualifying after later appends")
	}
}

// TestSelectConstKernelRandomEquivalence drives SelectConstKernel with
// random mixed-kind unions, operators and constants, checking the
// kernel's output node against a scalar filter over op.HoldsCmp ∘
// values.Compare — the exact semantics of the fops scalar loop.
func TestSelectConstKernelRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		s := NewStore()
		n := rng.Intn(24)
		vs := make([]values.Value, n)
		kindRun := rng.Intn(2) == 0 // half the trials: kind-homogeneous unions
		for i := range vs {
			if kindRun {
				vs[i] = values.NewInt(int64(rng.Intn(40) - 20))
			} else {
				vs[i] = mixedValuePool(rng)
			}
		}
		// Give every value a kid row so filtered kid windows are checked.
		var b UnionBuilder
		b.Reset(s, 1)
		sort.Slice(vs, func(i, j int) bool { return values.Compare(vs[i], vs[j]) < 0 })
		for i, v := range vs {
			b.Append(v, []NodeID{NodeID(i)})
		}
		id := b.Finish()
		s.BuildCols()

		op := kernel.Op(rng.Intn(6))
		c := mixedValuePool(rng)
		var bits []uint64
		out, ok := s.SelectConstKernel(id, op, c, &bits)
		if !ok {
			continue // fallback: nothing to verify, scalar loop takes over
		}
		var wantVals []values.Value
		var wantKids []NodeID
		for i, v := range vs {
			if op.HoldsCmp(values.Compare(v, c)) {
				wantVals = append(wantVals, v)
				wantKids = append(wantKids, NodeID(i))
			}
		}
		if got := s.Len(out); got != len(wantVals) {
			t.Fatalf("trial %d (op %v, c %v): kernel kept %d values, scalar %d",
				trial, op, c, got, len(wantVals))
		}
		for i := range wantVals {
			if values.Compare(s.Val(out, i), wantVals[i]) != 0 {
				t.Fatalf("trial %d: value %d = %v, want %v", trial, i, s.Val(out, i), wantVals[i])
			}
			if got := s.Kid(out, i, 0); got != wantKids[i] {
				t.Fatalf("trial %d: kid row %d = %v, want %v", trial, i, got, wantKids[i])
			}
		}
	}
}

// TestFindValueRandomEquivalence checks the search kernels against the
// scalar sort.Search over values.Compare, across kinds and misses.
func TestFindValueRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		s := NewStore()
		n := 1 + rng.Intn(20)
		vs := make([]values.Value, n)
		mode := rng.Intn(3)
		for i := range vs {
			switch mode {
			case 0:
				vs[i] = values.NewInt(int64(rng.Intn(30)))
			case 1:
				vs[i] = values.NewFloat(float64(rng.Intn(30)) / 2)
			default:
				vs[i] = mixedValuePool(rng)
			}
		}
		id := buildSortedLeaf(s, vs)
		s.BuildCols()

		var needle values.Value
		if rng.Intn(2) == 0 {
			needle = vs[rng.Intn(n)]
		} else {
			needle = mixedValuePool(rng)
		}
		gotPos, gotFound := s.FindValue(id, needle)
		wantPos := sort.Search(n, func(i int) bool {
			return values.Compare(s.Val(id, i), needle) >= 0
		})
		wantFound := wantPos < n && values.Compare(s.Val(id, wantPos), needle) == 0
		if gotPos != wantPos || gotFound != wantFound {
			t.Fatalf("trial %d: FindValue(%v) = (%d, %v), want (%d, %v); union %v",
				trial, needle, gotPos, gotFound, wantPos, wantFound, s.Vals(id))
		}
	}
}

// TestIntersectPairsRandomEquivalence checks the merge-intersect kernels
// against the quadratic reference over values.Compare.
func TestIntersectPairsRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		s := NewStore()
		mk := func() NodeID {
			n := rng.Intn(16)
			vs := make([]values.Value, 0, n)
			seen := map[int64]bool{}
			for len(vs) < n {
				v := int64(rng.Intn(30))
				if seen[v] {
					continue // union values are distinct
				}
				seen[v] = true
				if rng.Intn(4) == 0 {
					vs = append(vs, values.NewFloat(float64(v)/2))
				} else {
					vs = append(vs, values.NewInt(v))
				}
			}
			return buildSortedLeaf(s, vs)
		}
		x, y := mk(), mk()
		s.BuildCols()
		got, ok := s.IntersectPairs(x, y, nil)
		if !ok {
			continue // mixed-kind windows: scalar merge takes over
		}
		var want [][2]int32
		for i := 0; i < s.Len(x); i++ {
			for j := 0; j < s.Len(y); j++ {
				if values.Compare(s.Val(x, i), s.Val(y, j)) == 0 {
					want = append(want, [2]int32{int32(i), int32(j)})
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d pairs, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pair %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestResetClearsDirtyValsWatermark is the white-box test for the Reset
// fix: CloneInto may shrink the live slab below previously-written
// entries, and Reset must still zero the entire high-water region so no
// string/vec payload stays pinned — while never touching the untouched
// capacity tail the old clear(vals[:cap]) paid for.
func TestResetClearsDirtyValsWatermark(t *testing.T) {
	big := NewStore()
	var b UnionBuilder
	b.Reset(big, 0)
	for i := 0; i < 64; i++ {
		b.Append(values.NewString(fmt.Sprintf("pinned-%d", i)), nil)
	}
	b.Finish()

	small := NewStore()
	b.Reset(small, 0)
	b.Append(values.NewInt(1), nil)
	b.Finish()

	dst := NewStore()
	big.CloneInto(dst)   // fills 64 value slots
	small.CloneInto(dst) // shrinks the live slab to 1, watermark stays 64
	if dst.dirtyVals < 64 {
		t.Fatalf("dirtyVals = %d after shrinking CloneInto, want ≥ 64", dst.dirtyVals)
	}
	dst.Reset()
	if dst.dirtyVals != 0 {
		t.Fatalf("dirtyVals = %d after Reset, want 0", dst.dirtyVals)
	}
	tail := dst.vals[:cap(dst.vals)]
	for i, v := range tail {
		if v != (values.Value{}) {
			t.Fatalf("vals[%d] = %v after Reset, want zero (pinned payload leaked)", i, v)
		}
	}
	if dst.cols != nil {
		t.Fatal("cols survived Reset")
	}
}

// BenchmarkStoreReset pins the Reset fast path: resetting a store whose
// live slab is tiny must cost the high-water region, not the full slab
// capacity. The regression mode (clear over cap) shows up as ~64× more
// ns/op here.
func BenchmarkStoreReset(bm *testing.B) {
	big := NewStore()
	var b UnionBuilder
	b.Reset(big, 0)
	for i := 0; i < 1<<16; i++ {
		b.Append(values.NewInt(int64(i)), nil)
	}
	b.Finish()
	small := NewStore()
	b.Reset(small, 0)
	b.Append(values.NewInt(1), nil)
	b.Finish()

	dst := NewStore()
	big.CloneInto(dst) // grow the capacity once
	dst.Reset()
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		small.CloneInto(dst)
		dst.Reset()
	}
}

// FuzzKernelSelect cross-checks SelectConstKernel against the scalar
// reference on fuzzer-chosen unions, operators and constants.
func FuzzKernelSelect(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(4), int64(3), false)
	f.Add([]byte{0, 0, 255, 128, 7, 7, 7}, uint8(0), int64(7), true)
	f.Add([]byte{10, 20, 30}, uint8(2), int64(-1), false)
	f.Add([]byte{}, uint8(5), int64(0), false)
	f.Add([]byte{9, 9, 9, 9}, uint8(1), int64(9), true)
	f.Fuzz(func(t *testing.T, raw []byte, opRaw uint8, c int64, floatConst bool) {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		op := kernel.Op(opRaw % 6)
		s := NewStore()
		vs := make([]values.Value, len(raw))
		for i, bv := range raw {
			switch bv % 4 {
			case 0:
				vs[i] = values.NewInt(int64(bv))
			case 1:
				vs[i] = values.NewInt(-int64(bv))
			case 2:
				vs[i] = values.NewFloat(float64(bv) / 4)
			default:
				vs[i] = values.NewFloat(-float64(bv))
			}
		}
		id := buildSortedLeaf(s, vs)
		s.BuildCols()
		var cv values.Value
		if floatConst {
			cv = values.NewFloat(float64(c) / 8)
		} else {
			cv = values.NewInt(c)
		}
		var bits []uint64
		out, ok := s.SelectConstKernel(id, op, cv, &bits)
		if !ok {
			return
		}
		var want []values.Value
		for i := 0; i < s.Len(id); i++ {
			if v := s.Val(id, i); op.HoldsCmp(values.Compare(v, cv)) {
				want = append(want, v)
			}
		}
		if got := s.Len(out); got != len(want) {
			t.Fatalf("kernel kept %d values, scalar %d (op %v, c %v, union %v)",
				got, len(want), op, cv, s.Vals(id))
		}
		for i := range want {
			if values.Compare(s.Val(out, i), want[i]) != 0 {
				t.Fatalf("value %d = %v, want %v", i, s.Val(out, i), want[i])
			}
		}
	})
}

// TestGraftCarriesCols: a store assembled like an execution's working
// store — CloneInto of one column-indexed base, then a Graft of another
// — answers ColRun for every node exactly as a fresh BuildCols over the
// assembled slab does, so joins over several bases stay kernel-eligible
// without re-indexing.
func TestGraftCarriesCols(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mkBase := func() *Store {
		s := NewStore()
		for i := 0; i < 12; i++ {
			vs := make([]values.Value, 1+rng.Intn(6))
			for j := range vs {
				vs[j] = mixedValuePool(rng)
			}
			buildSortedLeaf(s, vs)
		}
		s.BuildCols()
		return s
	}
	first, second := mkBase(), mkBase()
	dst := NewStore()
	first.CloneInto(dst)
	dst.Graft(second)
	if !dst.HasCols() {
		t.Fatal("graft of an indexed base into an indexed store lost the column index")
	}
	ref := dst.Clone()
	ref.BuildCols()
	for id := NodeID(1); int(id) < dst.NodeCount(); id++ {
		gk, gp, gok := dst.ColRun(id)
		wk, wp, wok := ref.ColRun(id)
		if gok != wok || gk != wk || fmt.Sprint(gp) != fmt.Sprint(wp) {
			t.Fatalf("node %d: ColRun = (%v, %v, %v), fresh BuildCols gives (%v, %v, %v)", id, gk, gp, gok, wk, wp, wok)
		}
	}
	// The sources are untouched: the graft shares their indexes.
	if !first.HasCols() || !second.HasCols() {
		t.Fatal("graft modified a source's column index")
	}
}
