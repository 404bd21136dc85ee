package kernel

// The distribution kernel behind the χ restructuring operator: a stable
// sort of (key, position) pairs by int64 key. χ generates its pairs in
// a-major order and needs them grouped by b with ascending a inside
// each group, so stability by the key alone is the whole contract —
// the positions are opaque payload that travels with the keys.

import (
	"math"
	"math/bits"
)

// sortCutover is the pair count below which SortPairsInt64 insertion-
// sorts in place instead of distributing. BenchmarkSortPairsInt64 puts
// the crossover at 48–80 pairs on amd64 for pairs in near-random order
// (B-lists of one or two values) over key ranges of 2^8..2^13, and
// higher for longer sorted lists, which leave insertion fewer
// inversions to undo; the radix side stays competitive that low only
// because radixPlan narrows the digit for small inputs.
const sortCutover = 64

// maxDigitBits caps the radix digit: 2^11 uint32 counters are 8 KiB,
// inside L1 beside the scatter's write streams.
const maxDigitBits = 11

// SortScratch is the caller-owned working memory of SortPairsInt64:
// the ping-pong buffers and the digit histogram. The zero value is
// ready to use; buffers grow to the high-water mark and are reused
// across calls, so a long-lived scratch allocates only on growth.
type SortScratch struct {
	keys, pos []int64
	hist      []uint32
}

// SortPairsInt64 stably sorts the parallel slices (keys[i], pos[i]) by
// ascending key and returns the sorted pair of slices. The result is
// either the inputs themselves, sorted in place, or sc's buffers — in
// both cases the input slices' contents are unspecified afterwards, and
// a result aliasing sc is valid only until the next call with sc.
//
// Inputs that are already ascending (one sorted list, or one distinct
// key) return after a single scan; fewer than sortCutover pairs are
// insertion-sorted; everything else goes through an LSD radix over
// uint64(k)−uint64(min), which spends passes only on the bits the key
// range occupies — the paper's domains (dates, customers, packages,
// items) need one or two. The subtraction is unsigned, so the full
// int64 range, MinInt64 and MaxInt64 in one input included, orders
// correctly.
func SortPairsInt64(keys, pos []int64, sc *SortScratch) ([]int64, []int64) {
	n := len(keys)
	pos = pos[:n]
	if n < sortCutover {
		insertionSortPairs(keys, pos)
		return keys, pos
	}
	if n > math.MaxUint32 {
		panic("kernel: SortPairsInt64: more than 2^32-1 pairs")
	}
	mn, mx, prev := keys[0], keys[0], keys[0]
	sorted := true
	for _, k := range keys[1:] {
		if k < prev {
			sorted = false
		}
		if k < mn {
			mn = k
		}
		if k > mx {
			mx = k
		}
		prev = k
	}
	if sorted {
		return keys, pos
	}
	return radixSortPairs(keys, pos, mn, mx, sc)
}

// radixSortPairs is the LSD distribution of SortPairsInt64 over keys
// known to span [mn, mx] with mn < mx.
func radixSortPairs(keys, pos []int64, mn, mx int64, sc *SortScratch) ([]int64, []int64) {
	n := len(keys)
	passes, digit := radixPlan(n, bits.Len64(uint64(mx)-uint64(mn)))
	sc.keys = growInt64(sc.keys, n)
	sc.pos = growInt64(sc.pos, n)
	if sc.hist == nil {
		sc.hist = make([]uint32, 1<<maxDigitBits)
	}
	hist := sc.hist[:1<<digit]
	base, mask := uint64(mn), uint64(1)<<digit-1
	srcK, srcP, dstK, dstP := keys, pos, sc.keys, sc.pos
	for p := 0; p < passes; p++ {
		shift := uint(p) * digit
		clear(hist)
		for _, k := range srcK {
			hist[(uint64(k)-base)>>shift&mask]++
		}
		var sum uint32
		for d, c := range hist {
			hist[d] = sum
			sum += c
		}
		for i, k := range srcK {
			d := (uint64(k) - base) >> shift & mask
			o := hist[d]
			hist[d] = o + 1
			dstK[o], dstP[o] = k, srcP[i]
		}
		srcK, srcP, dstK, dstP = dstK, dstP, srcK, srcP
	}
	return srcK, srcP
}

// radixPlan picks the number of LSD passes and the digit width for n
// pairs whose keys span keyBits bits: the fewest passes whose equal
// digits fit maxDigitBits, then more, narrower passes for as long as
// that lowers passes·(2n + buckets) — a pass counts and scatters every
// pair and clears and sums every counter, and for a few dozen pairs the
// counters dominate.
func radixPlan(n, keyBits int) (passes int, digit uint) {
	passes = (keyBits + maxDigitBits - 1) / maxDigitBits
	digit = uint((keyBits + passes - 1) / passes)
	cost := passes * (2*n + 1<<digit)
	for {
		p := passes + 1
		d := uint((keyBits + p - 1) / p)
		c := p * (2*n + 1<<d)
		if c >= cost {
			return passes, digit
		}
		passes, digit, cost = p, d, c
	}
}

// insertionSortPairs stably sorts the pairs in place: an element moves
// left only past strictly greater keys.
func insertionSortPairs(keys, pos []int64) {
	for i := 1; i < len(keys); i++ {
		k, p := keys[i], pos[i]
		j := i
		for j > 0 && keys[j-1] > k {
			keys[j], pos[j] = keys[j-1], pos[j-1]
			j--
		}
		keys[j], pos[j] = k, p
	}
}

// growInt64 returns buf resized to n elements (contents unspecified),
// reusing the backing array when large enough and otherwise growing at
// least geometrically so a scratch fed slowly rising sizes settles.
func growInt64(buf []int64, n int) []int64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int64, n, max(n, 2*cap(buf)))
}
