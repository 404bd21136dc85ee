package kernel

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/factordb/fdb/internal/values"
)

// naiveHolds evaluates "x op c" through values.Compare, the semantics
// every kernel must reproduce bit for bit.
func naiveHolds(x, c values.Value, op Op) bool {
	return op.HoldsCmp(values.Compare(x, c))
}

var allOps = []Op{EQ, NE, LT, LE, GT, GE}

func bitmapToBools(bm []uint64, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = bm[i>>6]&(1<<uint(i&63)) != 0
	}
	return out
}

func TestHoldsCmp(t *testing.T) {
	want := map[Op][3]bool{
		// results for c = -1, 0, +1
		EQ: {false, true, false},
		NE: {true, false, true},
		LT: {true, false, false},
		LE: {true, true, false},
		GT: {false, false, true},
		GE: {false, true, true},
	}
	for op, w := range want {
		for i, c := range []int{-1, 0, 1} {
			if got := op.HoldsCmp(c); got != w[i] {
				t.Errorf("op %d HoldsCmp(%d) = %v, want %v", op, c, got, w[i])
			}
		}
	}
}

func TestCmpConstInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200)
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(20) - 10)
		}
		c := int64(rng.Intn(20) - 10)
		cv := values.NewInt(c)
		for _, op := range allOps {
			bm := Bitmap(nil, n)
			cnt := CmpConstInt64(xs, c, op, bm)
			got := bitmapToBools(bm, n)
			wantCnt := 0
			for i, x := range xs {
				want := naiveHolds(values.NewInt(x), cv, op)
				if want {
					wantCnt++
				}
				if got[i] != want {
					t.Fatalf("op %d: xs[%d]=%d vs %d: got %v want %v", op, i, x, c, got[i], want)
				}
			}
			if cnt != wantCnt {
				t.Fatalf("op %d: count %d want %d", op, cnt, wantCnt)
			}
		}
	}
}

func floatPool(rng *rand.Rand) float64 {
	pool := []float64{
		0, math.Copysign(0, -1), 1.5, -1.5, 2.25, -3,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	if rng.Intn(2) == 0 {
		return pool[rng.Intn(len(pool))]
	}
	return rng.NormFloat64() * 10
}

func TestCmpConstFloatVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(150)
		fs := make([]float64, n)
		bits := make([]int64, n)
		for i := range fs {
			fs[i] = floatPool(rng)
			bits[i] = int64(math.Float64bits(fs[i]))
		}
		c := floatPool(rng)
		cv := values.NewFloat(c)
		for _, op := range allOps {
			bm1 := Bitmap(nil, n)
			cnt1 := CmpConstFloat64(fs, c, op, bm1)
			bm2 := Bitmap(nil, n)
			cnt2 := CmpConstFloatBits(bits, c, op, bm2)
			g1 := bitmapToBools(bm1, n)
			g2 := bitmapToBools(bm2, n)
			wantCnt := 0
			for i := range fs {
				want := naiveHolds(values.NewFloat(fs[i]), cv, op)
				if want {
					wantCnt++
				}
				if g1[i] != want {
					t.Fatalf("Float64 op %d: fs[%d]=%v vs %v: got %v want %v", op, i, fs[i], c, g1[i], want)
				}
				if g2[i] != want {
					t.Fatalf("FloatBits op %d: fs[%d]=%v vs %v: got %v want %v", op, i, fs[i], c, g2[i], want)
				}
			}
			if cnt1 != wantCnt || cnt2 != wantCnt {
				t.Fatalf("op %d: counts %d/%d want %d", op, cnt1, cnt2, wantCnt)
			}
		}
	}
}

func TestCmpConstInt64AsFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(150)
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(40) - 20)
		}
		c := floatPool(rng)
		cv := values.NewFloat(c)
		for _, op := range allOps {
			bm := Bitmap(nil, n)
			cnt := CmpConstInt64AsFloat(xs, c, op, bm)
			got := bitmapToBools(bm, n)
			wantCnt := 0
			for i, x := range xs {
				want := naiveHolds(values.NewInt(x), cv, op)
				if want {
					wantCnt++
				}
				if got[i] != want {
					t.Fatalf("op %d: xs[%d]=%d vs %v: got %v want %v", op, i, x, c, got[i], want)
				}
			}
			if cnt != wantCnt {
				t.Fatalf("op %d: count %d want %d", op, cnt, wantCnt)
			}
		}
	}
}

func TestSumInt64MatchesScalarFold(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(300)
		xs := make([]int64, n)
		for i := range xs {
			// Include values near the overflow boundary: wrapping adds
			// must agree regardless of association.
			if rng.Intn(10) == 0 {
				xs[i] = math.MaxInt64 - int64(rng.Intn(3))
			} else {
				xs[i] = rng.Int63() - rng.Int63()
			}
		}
		var want int64
		for _, x := range xs {
			want += x
		}
		if got := SumInt64(xs); got != want {
			t.Fatalf("SumInt64 = %d, want %d", got, want)
		}
	}
}

func TestSumFloatMatchesScalarFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		fs := make([]float64, n)
		bits := make([]int64, n)
		for i := range fs {
			fs[i] = floatPool(rng)
			bits[i] = int64(math.Float64bits(fs[i]))
		}
		// The scalar γ path folds values.Add(acc, MulInt(v, 1)) left to
		// right from a Null accumulator, i.e. v0*1.0, then += each.
		want := fs[0] * 1.0
		for _, f := range fs[1:] {
			want += f
		}
		got := SumFloat64(fs)
		gotBits := SumFloatBits(bits)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SumFloat64 bits %x, want %x (%v vs %v)",
				math.Float64bits(got), math.Float64bits(want), got, want)
		}
		if math.Float64bits(gotBits) != math.Float64bits(want) {
			t.Fatalf("SumFloatBits bits %x, want %x", math.Float64bits(gotBits), math.Float64bits(want))
		}
	}
}

func TestSumFloatNegativeZero(t *testing.T) {
	nz := math.Copysign(0, -1)
	got := SumFloat64([]float64{nz})
	if math.Float64bits(got) != math.Float64bits(nz) {
		t.Fatalf("lone -0.0 sum lost its sign: %x", math.Float64bits(got))
	}
}

func TestMinMaxMatchesValueFold(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(100)

		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(20) - 10)
		}
		mnI, mxI := MinMaxInt64(xs)
		wantMn, wantMx := values.NewInt(xs[0]), values.NewInt(xs[0])
		for _, x := range xs[1:] {
			wantMn = values.Min(wantMn, values.NewInt(x))
			wantMx = values.Max(wantMx, values.NewInt(x))
		}
		if values.Compare(values.NewInt(xs[mnI]), wantMn) != 0 {
			t.Fatalf("MinMaxInt64 min %d want %v", xs[mnI], wantMn)
		}
		if values.Compare(values.NewInt(xs[mxI]), wantMx) != 0 {
			t.Fatalf("MinMaxInt64 max %d want %v", xs[mxI], wantMx)
		}

		fs := make([]float64, n)
		bits := make([]int64, n)
		for i := range fs {
			fs[i] = floatPool(rng)
			bits[i] = int64(math.Float64bits(fs[i]))
		}
		fmn, fmx := MinMaxFloat64(fs)
		bmn, bmx := MinMaxFloatBits(bits)
		if fmn != bmn || fmx != bmx {
			t.Fatalf("Float64 and FloatBits MinMax disagree: (%d,%d) vs (%d,%d)", fmn, fmx, bmn, bmx)
		}
		// The scalar fold keeps the earlier operand on ties (Compare ==
		// 0), so match it index-exactly, not just value-exactly: the γ
		// evaluator emits the stored value at the winning index.
		wantMinIdx, wantMaxIdx := 0, 0
		accMn, accMx := values.NewFloat(fs[0]), values.NewFloat(fs[0])
		for i, f := range fs[1:] {
			v := values.NewFloat(f)
			if values.Compare(accMn, v) > 0 {
				accMn = v
				wantMinIdx = i + 1
			}
			if values.Compare(accMx, v) < 0 {
				accMx = v
				wantMaxIdx = i + 1
			}
		}
		if fmn != wantMinIdx || fmx != wantMaxIdx {
			t.Fatalf("MinMaxFloat64 idx (%d,%d) want (%d,%d) over %v", fmn, fmx, wantMinIdx, wantMaxIdx, fs)
		}
	}
}

func TestIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		// Strictly ascending runs, as the store invariant guarantees.
		mk := func() []int64 {
			n := rng.Intn(40)
			out := make([]int64, 0, n)
			v := int64(-50)
			for i := 0; i < n; i++ {
				v += int64(1 + rng.Intn(5))
				out = append(out, v)
			}
			return out
		}
		xs, ys := mk(), mk()
		got := IntersectInt64(xs, ys, nil)
		var want [][2]int32
		for i, x := range xs {
			for j, y := range ys {
				if x == y {
					want = append(want, [2]int32{int32(i), int32(j)})
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("IntersectInt64 %d pairs, want %d", len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("pair %d: got %v want %v", k, got[k], want[k])
			}
		}

		// Float runs: ascending distinct floats via ascending ints/2.
		fx := make([]int64, len(xs))
		for i, x := range xs {
			fx[i] = int64(math.Float64bits(float64(x) / 2))
		}
		fy := make([]int64, len(ys))
		for j, y := range ys {
			fy[j] = int64(math.Float64bits(float64(y) / 2))
		}
		gotF := IntersectFloatBits(fx, fy, nil)
		if len(gotF) != len(want) {
			t.Fatalf("IntersectFloatBits %d pairs, want %d", len(gotF), len(want))
		}
		for k := range gotF {
			if gotF[k] != want[k] {
				t.Fatalf("float pair %d: got %v want %v", k, gotF[k], want[k])
			}
		}
	}
}

func TestSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		xs := make([]int64, 0, n)
		v := int64(-40)
		for i := 0; i < n; i++ {
			v += int64(1 + rng.Intn(4))
			xs = append(xs, v)
		}
		c := int64(rng.Intn(120) - 60)
		pos, ok := SearchInt64(xs, c)
		// Reference: first index where x >= c, equality check.
		wantPos := len(xs)
		for i, x := range xs {
			if x >= c {
				wantPos = i
				break
			}
		}
		wantOK := wantPos < len(xs) && xs[wantPos] == c
		if pos != wantPos || ok != wantOK {
			t.Fatalf("SearchInt64(%v, %d) = (%d,%v), want (%d,%v)", xs, c, pos, ok, wantPos, wantOK)
		}

		fb := make([]int64, len(xs))
		for i, x := range xs {
			fb[i] = int64(math.Float64bits(float64(x)))
		}
		fpos, fok := SearchFloatBits(fb, float64(c))
		if fpos != wantPos || fok != wantOK {
			t.Fatalf("SearchFloatBits = (%d,%v), want (%d,%v)", fpos, fok, wantPos, wantOK)
		}
		apos, aok := SearchInt64AsFloat(xs, float64(c))
		if apos != wantPos || aok != wantOK {
			t.Fatalf("SearchInt64AsFloat = (%d,%v), want (%d,%v)", apos, aok, wantPos, wantOK)
		}
	}
	// A NaN needle compares equal to everything under cmpFloat: found at 0.
	xs := []int64{int64(math.Float64bits(1.5)), int64(math.Float64bits(2.5))}
	pos, ok := SearchFloatBits(xs, math.NaN())
	if pos != 0 || !ok {
		t.Fatalf("NaN needle: got (%d,%v), want (0,true)", pos, ok)
	}
}

func TestNextRun(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200)
		want := make([]bool, n)
		bm := Bitmap(nil, n)
		for i := range want {
			if rng.Intn(3) > 0 {
				want[i] = true
				bm[i>>6] |= 1 << uint(i&63)
			}
		}
		// Reconstruct the bool slice by walking runs.
		got := make([]bool, n)
		for pos := 0; pos < n; {
			s, e := NextRun(bm, pos, n)
			if s == e {
				break
			}
			if s < pos || e <= s || e > n {
				t.Fatalf("bad run [%d,%d) from %d (n=%d)", s, e, pos, n)
			}
			for i := s; i < e; i++ {
				got[i] = true
			}
			pos = e
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bit %d: got %v want %v", i, got[i], want[i])
			}
		}
	}
}

func TestBitmapReuse(t *testing.T) {
	bm := Bitmap(nil, 100)
	for i := range bm {
		bm[i] = ^uint64(0)
	}
	bm2 := Bitmap(bm, 64)
	if len(bm2) != 1 || bm2[0] != 0 {
		t.Fatalf("Bitmap reuse did not clear: %v", bm2)
	}
	if &bm2[0] != &bm[0] {
		t.Fatalf("Bitmap reallocated despite sufficient capacity")
	}
}

// refSortPairs is the contract SortPairsInt64 must meet: a stable sort
// of the pairs by key alone.
func refSortPairs(keys, pos []int64) ([]int64, []int64) {
	type pair struct{ k, p int64 }
	ps := make([]pair, len(keys))
	for i := range keys {
		ps[i] = pair{keys[i], pos[i]}
	}
	slices.SortStableFunc(ps, func(x, y pair) int { return cmp.Compare(x.k, y.k) })
	rk, rp := make([]int64, len(ps)), make([]int64, len(ps))
	for i, p := range ps {
		rk[i], rp[i] = p.k, p.p
	}
	return rk, rp
}

// checkSortPairs sorts a copy of keys (positions 0..n-1, so stability is
// observable) through sc and compares with the reference.
func checkSortPairs(t *testing.T, name string, keys []int64, sc *SortScratch) {
	t.Helper()
	pos := make([]int64, len(keys))
	for i := range pos {
		pos[i] = int64(i)
	}
	wantK, wantP := refSortPairs(keys, pos)
	gotK, gotP := SortPairsInt64(slices.Clone(keys), pos, sc)
	if !slices.Equal(gotK, wantK) {
		t.Fatalf("%s (n=%d): keys differ from the stable reference", name, len(keys))
	}
	if !slices.Equal(gotP, wantP) {
		t.Fatalf("%s (n=%d): positions differ from the stable reference (stability lost)", name, len(keys))
	}
}

func TestSortPairsInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := func(n int, f func(i int) int64) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = f(i)
		}
		return ks
	}
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1}
	shapes := []struct {
		name string
		f    func(n int) func(i int) int64
	}{
		{"all-equal", func(int) func(int) int64 { return func(int) int64 { return 42 } }},
		{"sorted", func(int) func(int) int64 { return func(i int) int64 { return int64(i/3) - 7 } }},
		{"reverse", func(n int) func(int) int64 { return func(i int) int64 { return int64((n - i) / 2) } }},
		{"min-max", func(int) func(int) int64 { return func(int) int64 { return extremes[rng.Intn(len(extremes))] } }},
		{"narrow", func(int) func(int) int64 { return func(int) int64 { return int64(rng.Intn(5)) - 2 } }},
		{"dates", func(int) func(int) int64 { return func(int) int64 { return int64(rng.Intn(8000)) } }},
		{"wide", func(int) func(int) int64 { return func(int) int64 { return rng.Int63() - rng.Int63() } }},
		{"two-keys-one-outlier", func(n int) func(int) int64 {
			return func(i int) int64 {
				if i == n/2 {
					return 1 << 40
				}
				return int64(i & 1)
			}
		}},
	}
	// One scratch through every case, sizes shrinking and growing, so a
	// stale buffer length or histogram would surface.
	var sc SortScratch
	sizes := []int{0, 1, 2, sortCutover - 1, sortCutover, sortCutover + 1, 5000, 3, 700, sortCutover, 20000, 1}
	for _, n := range sizes {
		for _, sh := range shapes {
			checkSortPairs(t, sh.name, gen(n, sh.f(n)), &sc)
		}
	}
	// a-major concatenations of ascending lists, χ's actual input.
	for trial := 0; trial < 200; trial++ {
		var ks []int64
		for lists := 1 + rng.Intn(60); lists > 0; lists-- {
			k := int64(rng.Intn(50)) - 25
			for m := rng.Intn(8); m > 0; m-- {
				k += 1 + int64(rng.Intn(40))
				ks = append(ks, k)
			}
		}
		checkSortPairs(t, "a-major", ks, &sc)
	}
}

func TestRadixPlanCoversKeyBits(t *testing.T) {
	for _, n := range []int{sortCutover, 100, 1000, 1 << 20} {
		for kb := 1; kb <= 64; kb++ {
			p, d := radixPlan(n, kb)
			if p < 1 || d < 1 || d > maxDigitBits || p*int(d) < kb {
				t.Fatalf("radixPlan(%d, %d) = %d passes of %d bits", n, kb, p, d)
			}
		}
	}
}

func FuzzSortPairsInt64(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 1, 2}, uint8(0))
	f.Add(bytes.Repeat([]byte{9, 200, 7, 7, 0, 255, 128, 127}, 40), uint8(0))
	f.Add(bytes.Repeat([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 40), uint8(2))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 250, 251}, 100), uint8(1))
	var sc SortScratch // shared across inputs: sizes come in any order
	f.Fuzz(func(t *testing.T, raw []byte, mode uint8) {
		if len(raw) > 1<<14 {
			raw = raw[:1<<14]
		}
		// Key width 1, 2 or 8 bytes, sign-extended: narrow widths give
		// few-bit ranges and many ties, 8 bytes the full int64 range.
		w := []int{1, 2, 8}[mode%3]
		keys := make([]int64, 0, len(raw)/w)
		for ; len(raw) >= w; raw = raw[w:] {
			switch w {
			case 1:
				keys = append(keys, int64(int8(raw[0])))
			case 2:
				keys = append(keys, int64(int16(binary.BigEndian.Uint16(raw))))
			default:
				keys = append(keys, int64(binary.BigEndian.Uint64(raw)))
			}
		}
		checkSortPairs(t, "fuzz", keys, &sc)
	})
}

// amajorPairs builds n pairs the way χ does: a concatenation of
// ascending lists of about per keys drawn from [0, span).
func amajorPairs(rng *rand.Rand, n, per int, span int64) (keys, pos []int64) {
	for a := 0; len(keys) < n; a++ {
		start := len(keys)
		for m := min(per, n-start); m > 0; m-- {
			keys = append(keys, rng.Int63n(span))
		}
		slices.Sort(keys[start:])
		for j := range keys[start:] {
			pos = append(pos, int64(a)<<32|int64(j))
		}
	}
	return keys, pos
}

// BenchmarkSortPairsInt64 is the series behind sortCutover and
// radixPlan: around the cut-over it times both arms on the same input,
// above it the dispatching entry point.
func BenchmarkSortPairsInt64(b *testing.B) {
	for _, span := range []int64{200, 1600, 8000, 1 << 40} {
		for _, per := range []int{1, 8} {
			for _, n := range []int{16, 32, 48, 64, 96, 128, 430, 10000, 200000} {
				rng := rand.New(rand.NewSource(1))
				k0, p0 := amajorPairs(rng, n, per, span)
				keys, pos := make([]int64, n), make([]int64, n)
				var sc SortScratch
				type arm struct {
					name string
					sort func()
				}
				arms := []arm{{"kernel", func() { SortPairsInt64(keys, pos, &sc) }}}
				if n <= 128 {
					arms = []arm{
						{"insertion", func() { insertionSortPairs(keys, pos) }},
						{"radix", func() { radixSortPairs(keys, pos, slices.Min(keys), slices.Max(keys), &sc) }},
					}
				}
				for _, arm := range arms {
					b.Run(fmt.Sprintf("span=%d/per=%d/n=%d/%s", span, per, n, arm.name), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							copy(keys, k0)
							copy(pos, p0)
							arm.sort()
						}
					})
				}
			}
		}
	}
}
