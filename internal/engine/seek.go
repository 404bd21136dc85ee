package engine

// Ranked direct access at the engine layer: OFFSET routes through the
// arena enumerators' Seek (O(depth × log fanout) on ranked stores)
// instead of stepping the odometer row by row, bare COUNT(*) queries
// are answered from the ranked root counts without executing the
// aggregation plan, and Result.TotalCount reports the pre-OFFSET row
// count from the same index. Process-wide counters record which route
// each OFFSET took, for the server's /stats accounting.

import (
	"math"
	"math/bits"
	"sync/atomic"

	"github.com/factordb/fdb/internal/query"
)

// seekFallbackMin is the smallest OFFSET worth routing through Seek on
// an unranked store, where counting falls back to a memoized recursion
// over (slot, node) pairs: below it the plain linear skip is cheaper
// than building the memo. Ranked stores always seek.
const seekFallbackMin = 1024

// Cumulative OFFSET routing counters; see SeekSkipStats.
var (
	seekOffsets atomic.Int64
	skipOffsets atomic.Int64
)

// OffsetStats are cumulative counters of how OFFSET clauses were
// applied: by ranked (or memoized) direct Seek, or by the linear
// skip loop.
type OffsetStats struct {
	SeekOffsets int64 `json:"seekOffsets"`
	SkipOffsets int64 `json:"skipOffsets"`
}

// SeekSkipStats returns the process-wide OFFSET routing counters.
func SeekSkipStats() OffsetStats {
	return OffsetStats{
		SeekOffsets: seekOffsets.Load(),
		SkipOffsets: skipOffsets.Load(),
	}
}

// rowSeeker is implemented by cursors that can apply an OFFSET by
// direct positioning. seekRows returns (skipped, true) when it handled
// the skip — skipped < n means the stream is exhausted — and
// (0, false) when the caller must fall back to the linear skip.
type rowSeeker interface {
	seekRows(n int) (int, bool)
}

// rowTotaler is implemented by cursors that can count their stream
// without enumerating it.
type rowTotaler interface {
	totalRows() (int64, bool)
}

// A HAVING filter makes output positions diverge from enumerator
// positions, so the cursor only seeks and counts without one. Seek
// always runs on the ranked path, and only past seekFallbackMin on the
// memoized fallback.

func (c *enumCursor) seekRows(n int) (int, bool) {
	if c.having != nil || (!c.en.SeekRanked() && n < seekFallbackMin) {
		return 0, false
	}
	return c.en.Seek(n), true
}

func (c *enumCursor) totalRows() (int64, bool) {
	if c.having != nil {
		return 0, false
	}
	return c.en.Total(), true
}

func (c *sliceCursor) totalRows() (int64, bool) { return int64(len(c.rows)), true }

// TotalCount returns the number of rows the query yields before OFFSET
// and LIMIT are applied (HAVING included) — the denominator a paginating
// caller needs. On ranked results it is answered from the
// subtree-count index without enumerating; otherwise the stream is
// counted. It builds the serial cursor, so it spawns no worker, and it
// does not advance any open Rows.
func (r *Result) TotalCount() (int64, error) {
	if r.closed {
		return 0, ErrClosed
	}
	cur, err := r.newCursor(false)
	if err != nil {
		return 0, err
	}
	if tt, ok := cur.(rowTotaler); ok {
		if n, ok := tt.totalRows(); ok {
			return n, nil
		}
	}
	var n int64
	for {
		_, ok, err := cur.step()
		if err != nil {
			return 0, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// fastCountQuery reports whether q is a bare COUNT(*): one count
// aggregate over everything, with no grouping, filtering, joining or
// ordering that would make the answer differ from the input size.
func fastCountQuery(q *query.Query) bool {
	return len(q.Aggregates) == 1 &&
		q.Aggregates[0].Fn == query.Count && q.Aggregates[0].Arg == "" &&
		len(q.GroupBy) == 0 && len(q.Having) == 0 && len(q.OrderBy) == 0 &&
		len(q.Filters) == 0 && len(q.Equalities) == 0
}

// countStar answers a bare COUNT(*) from the ranked root counts of
// the inputs, before any is copied: the flat result of a forest is the
// product of its root subtree counts. It declines — and the normal
// aggregation plan runs — when any root lacks the index or the product
// overflows.
func countStar(q *query.Query, ins []input) (int64, bool) {
	if !fastCountQuery(q) {
		return 0, false
	}
	total := uint64(1)
	for _, in := range ins {
		for _, root := range in.roots {
			t, ok := in.store.RankTotal(root)
			if !ok {
				return 0, false
			}
			hi, lo := bits.Mul64(total, uint64(t))
			if hi != 0 {
				return 0, false
			}
			total = lo
		}
	}
	if total > math.MaxInt64 {
		return 0, false
	}
	return int64(total), true
}
