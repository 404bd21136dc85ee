package frep

// Segment helpers. The root union of a representation partitions into
// contiguous value windows; Segments cuts them uniformly (the fan-out
// fallback when no ranked index balances them), and every stored field
// is a commutative monoid (ftree's table), so aggregates evaluated per
// window (Evaluator.EvalStoreRangeInto) fold with MergePartials in
// window order into the whole-union result, as the cluster coordinator
// folds per-shard partials. Integer aggregates fold bit-identically; a
// float sum may differ from the serial left-to-right fold in its last
// bits.

import (
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/values"
)

// Segments splits [0, n) into at most p non-empty contiguous windows of
// near-equal size, in ascending order.
func Segments(n, p int) [][2]int {
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	if n == 0 {
		return nil
	}
	out := make([][2]int, 0, p)
	size, rem := n/p, n%p
	lo := 0
	for w := 0; w < p; w++ {
		hi := lo + size
		if w < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// MergePartials folds the segment result src into the running result
// dst, field by field, with each field's ⊕ from ftree's table. Null is
// the identity of every ⊕, so dst may start as all Nulls.
func MergePartials(fields []ftree.AggField, dst, src []values.Value) {
	for i, fl := range fields {
		dst[i] = fl.Fn.Combine(dst[i], src[i])
	}
}
