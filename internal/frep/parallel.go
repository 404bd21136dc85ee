package frep

// Parallel aggregation over segmented arena forests. The root union of
// a representation partitions into contiguous value windows; every
// stored field is a commutative monoid (ftree's table), so each window
// evaluates independently — a Store is freely readable from any number
// of goroutines — and the partial results fold with ⊕ in segment order
// into exactly the serial result. Integer aggregates merge
// bit-identically; float sums may differ from the serial left-to-right
// fold in the last bits of rounding.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/values"
)

// MinParallelEvalValues is the smallest root union for which parallel
// aggregate evaluation fans out; below it the evaluation runs serially
// (goroutine fan-out would cost more than it saves). Exported so tests
// and benchmarks can force either path.
var MinParallelEvalValues = 2048

// MinParallelEvalWork is the smallest represented tuple count (from the
// ranked index, when it covers the union) for which parallel aggregate
// evaluation fans out. The root value count alone under-estimates work
// skew, but it also over-triggers on shallow trees: a γ over a few
// thousand root values whose subtrees are tiny finishes faster serially
// than the fan-out costs — the measured crossover on the paper's
// workload sits around 10⁵ represented tuples (this floor fixed the
// sum-global and sum-grouped P≥2 regressions recorded in CHANGES.md,
// PR 7). When the union is not ranked, only the value floor applies.
var MinParallelEvalWork = int64(1) << 17

// evalWorkers counts aggregate-evaluation workers spawned by this
// package, for the server's per-query worker accounting.
var evalWorkers atomic.Int64

// ParallelEvalWorkers returns the cumulative number of parallel
// aggregate-evaluation workers spawned.
func ParallelEvalWorkers() int64 { return evalWorkers.Load() }

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

// ParallelEvalStore computes the fields over union id of store s by
// fanning contiguous root segments across at most par workers — each
// with its own compiled Evaluator, all reading the shared store — and
// merging the partial results in segment order. par ≤ 0 means
// GOMAXPROCS; the evaluation runs serially when the effective
// parallelism is 1 or the union is smaller than MinParallelEvalValues.
func ParallelEvalStore(n *ftree.Node, fields []ftree.AggField, s *Store, id NodeID, par int, out []values.Value) error {
	nv := s.Len(id)
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	serial := par < 2 || nv < MinParallelEvalValues
	if !serial {
		if t, ok := s.RankTotal(id); ok && t < MinParallelEvalWork {
			serial = true
		}
	}
	if serial {
		ev, err := NewEvaluator(n, fields)
		if err != nil {
			return err
		}
		return ev.EvalStoreInto(s, id, out)
	}
	segs := Segments(nv, par)
	partials := make([][]values.Value, len(segs))
	errs := make([]error, len(segs))
	evalWorkers.Add(int64(len(segs)))
	var wg sync.WaitGroup
	for w, sg := range segs {
		w, sg := w, sg
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev, err := NewEvaluator(n, fields)
			if err != nil {
				errs[w] = err
				return
			}
			buf := make([]values.Value, len(fields))
			if err := ev.EvalStoreRangeInto(s, id, sg[0], sg[1], buf); err != nil {
				errs[w] = err
				return
			}
			partials[w] = buf
		}()
	}
	wg.Wait()
	for i := range out {
		out[i] = values.Value{}
	}
	for w := range segs {
		if errs[w] != nil {
			return errs[w]
		}
		MergePartials(fields, out, partials[w])
	}
	return nil
}
