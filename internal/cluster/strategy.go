package cluster

import (
	"fmt"

	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/plan"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/sql"
)

// mode is how the coordinator executes one query shape.
type mode int

const (
	// modeLocal runs the query against the coordinator's own full
	// catalogue: the query is not distributable (joins, unknown or
	// replicated-only relations, projections that drop the partition
	// attribute).
	modeLocal mode = iota
	// modeStream fans a non-aggregate query out and k-way merges the
	// shard row streams in serial output order; rows flow end to end
	// with O(shards) buffering.
	modeStream
	// modeGroupStream fans an aggregate query out and merges shard
	// group rows on the fly: streams arrive sorted by group key, so
	// groups straddling a shard boundary meet at the merge front and
	// their partials fold with ftree's table of monoids before the
	// finalised row is emitted.
	modeGroupStream
	// modeBuffered is modeGroupStream plus a coordinator-side sort:
	// ORDER BY references an aggregate output, whose value is not known
	// until every shard's contribution has merged, so rows buffer at
	// the coordinator, sort stably over the serial base order, and then
	// obey HAVING/OFFSET/LIMIT.
	modeBuffered
)

func (m mode) String() string {
	switch m {
	case modeLocal:
		return "local"
	case modeStream:
		return "stream"
	case modeGroupStream:
		return "group-stream"
	case modeBuffered:
		return "buffered"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// keyCol is one comparator component: a shard-row column index and its
// direction.
type keyCol struct {
	col  int
	desc bool
}

// strategy is the compiled distribution plan for one query: the
// rewritten SQL shards execute, the comparator that makes a k-way merge
// of their streams reproduce serial output order, the partial-merge
// algebra for aggregate columns, and the clauses (HAVING, ORDER BY on
// aggregates, OFFSET, LIMIT) held back for the coordinator.
type strategy struct {
	mode     mode
	shardSQL string       // rendered shard query (modes other than local)
	shardQ   *query.Query // the shard query, kept for failover resume rewrites

	// columns is the output header; empty means adopt the first shard's
	// header verbatim (SELECT *).
	columns []string

	// nGroup is the number of leading group-key columns in a shard row
	// (aggregate modes); the remaining columns are aggregate partials.
	nGroup int
	// low lowers the output aggregates onto the fields shards ship:
	// shard aggregate columns nGroup..nGroup+len(low.Fields()) hold them,
	// merged with each field's ⊕ and finalised into the outputs.
	low *ftree.Lowering

	// cmp orders shard rows for the k-way merge; ties broken by shard
	// index reproduce the serial stable sort.
	cmp []keyCol

	// Coordinator-side clauses.
	having    []query.Filter
	havingCol []int // output-column index of each having attribute
	orderBy   []keyCol
	limit     int // 0 = unlimited
	offset    int
	pushdown  int // LIMIT pushed to shards (0 = none)
}

// planStrategy compiles a parsed query against the shard manifest. A
// query distributes when it reads exactly one relation, that relation
// is range-partitioned, and (for non-aggregates) the output either
// keeps all columns or retains the partition attribute — the condition
// under which per-shard projection dedup equals global dedup and shard
// streams interleave back into serial order. Everything else falls back
// to local execution.
func planStrategy(q *query.Query, man *catalog.ShardManifest) (*strategy, error) {
	local := &strategy{mode: modeLocal}
	if man == nil || len(q.Relations) != 1 || len(q.Equalities) != 0 {
		return local, nil
	}
	sr := man.Rel(q.Relations[0])
	if sr == nil || sr.Partition == "" {
		return local, nil
	}
	if q.IsAggregate() {
		return planAggregate(q, sr)
	}
	return planScan(q, sr)
}

// planScan compiles a non-aggregate query. The engine answers an
// ordered scan by restructuring the relation's f-tree: ORDER BY
// attributes hoist to the front (in the requested order), the remaining
// attributes follow in relation order, and rows stream fully
// lex-sorted over that whole sequence — for SELECT * the output columns
// themselves arrive in this tree order. A projection keeps its own
// column order and dedups in enumeration order, so its visible stream
// is a total lex order only when the projected set is a prefix of the
// tree order; anything else (and any projection dropping the partition
// attribute, where per-shard dedup no longer equals global dedup) falls
// back to local execution.
func planScan(q *query.Query, sr *catalog.ShardRelation) (*strategy, error) {
	local := &strategy{mode: modeLocal}
	// The restructured tree order with each component's direction.
	type pathKey struct {
		attr string
		desc bool
	}
	keys := make([]pathKey, 0, len(sr.Attrs))
	seen := make(map[string]bool, len(sr.Attrs))
	for _, o := range q.OrderBy {
		if colIndex(sr.Attrs, o.Attr) < 0 {
			return local, nil
		}
		if seen[o.Attr] {
			continue
		}
		seen[o.Attr] = true
		keys = append(keys, pathKey{o.Attr, o.Desc})
	}
	for _, a := range sr.Attrs {
		if !seen[a] {
			keys = append(keys, pathKey{attr: a})
		}
	}
	cols := q.OutputAttrs() // empty for SELECT *
	st := &strategy{
		mode:    modeStream,
		columns: cols,
		limit:   q.Limit,
		offset:  q.Offset,
	}
	if len(cols) == 0 {
		// SELECT *: shard rows arrive in tree order; compare every
		// column left to right.
		for i, k := range keys {
			st.cmp = append(st.cmp, keyCol{col: i, desc: k.desc})
		}
	} else {
		if colIndex(cols, sr.Partition) < 0 {
			return local, nil
		}
		// Prefix check: each leading tree-order attribute must be
		// projected, and the comparator walks them in tree order at
		// their projected positions.
		for _, k := range keys[:len(cols)] {
			c := colIndex(cols, k.attr)
			if c < 0 {
				return local, nil
			}
			st.cmp = append(st.cmp, keyCol{col: c, desc: k.desc})
		}
	}
	sq := *q
	sq.Offset = 0
	sq.Limit = 0
	if q.Limit > 0 {
		sq.Limit = q.Limit + q.Offset
		st.pushdown = sq.Limit
	}
	st.shardQ = &sq
	st.shardSQL = sql.Render(&sq)
	return st, nil
}

// planAggregate compiles an aggregate query: shard rows carry group
// keys plus the lowered fields (AVG ships as SUM and COUNT), which the
// coordinator merges and finalises from ftree's table, HAVING always
// applies at the coordinator (a group straddling shards has no final
// value until its partials meet), and ORDER BY on an aggregate output
// forces the buffered mode.
func planAggregate(q *query.Query, sr *catalog.ShardRelation) (*strategy, error) {
	aggOut := make(map[string]bool, len(q.Aggregates))
	for _, a := range q.Aggregates {
		aggOut[a.OutName()] = true
	}
	buffered := false
	for _, o := range q.OrderBy {
		if aggOut[o.Attr] {
			buffered = true
		}
	}

	// Shards compute the lowered fields, one aliased column each.
	low, err := query.Lower(q.Aggregates)
	if err != nil {
		return nil, err
	}
	shardAggs := make([]query.Aggregate, len(low.Fields()))
	for k, f := range low.Fields() {
		shardAggs[k] = query.Aggregate{Fn: f.Fn, Arg: f.Arg, As: fmt.Sprintf("__f%d", k)}
	}

	st := &strategy{
		columns: q.OutputAttrs(),
		nGroup:  len(q.GroupBy),
		low:     low,
		having:  q.Having,
		limit:   q.Limit,
		offset:  q.Offset,
	}
	for _, h := range q.Having {
		c := colIndex(st.columns, h.Attr)
		if c < 0 {
			return &strategy{mode: modeLocal}, nil
		}
		st.havingCol = append(st.havingCol, c)
	}

	base := plan.GroupOutputOrder(q) // serial lex base order of group rows
	sq := *q
	sq.Aggregates = shardAggs
	sq.Having = nil
	sq.Offset = 0
	sq.Limit = 0
	if buffered {
		st.mode = modeBuffered
		// Shards stream in the serial base order — GroupOutputOrder of
		// the original query, requested explicitly as an ascending ORDER
		// BY so the shard's own output order matches the merge comparator
		// even when the original ORDER BY mixes aggregate aliases with
		// group attributes. The coordinator merges in that base order and
		// then stable-sorts by the full ORDER BY, which reproduces the
		// serial stable sort over the same base.
		sq.OrderBy = nil
		for _, g := range base {
			sq.OrderBy = append(sq.OrderBy, query.OrderItem{Attr: g})
			st.cmp = append(st.cmp, keyCol{col: colIndex(st.columns, g)})
		}
		for _, o := range q.OrderBy {
			st.orderBy = append(st.orderBy, keyCol{col: colIndex(st.columns, o.Attr), desc: o.Desc})
		}
	} else {
		st.mode = modeGroupStream
		// Shard output order = stable sort by ORDER BY over the base,
		// which totals to: ORDER BY keys first, then the remaining base
		// attributes ascending.
		seen := make(map[int]bool)
		for _, o := range q.OrderBy {
			c := colIndex(st.columns, o.Attr)
			st.cmp = append(st.cmp, keyCol{col: c, desc: o.Desc})
			seen[c] = true
		}
		for _, g := range base {
			if c := colIndex(st.columns, g); !seen[c] {
				st.cmp = append(st.cmp, keyCol{col: c})
				seen[c] = true
			}
		}
		if q.Limit > 0 && len(q.Having) == 0 {
			// k+m merged groups consume at most k+m groups per stream.
			sq.Limit = q.Limit + q.Offset
			st.pushdown = sq.Limit
		}
	}
	st.shardQ = &sq
	st.shardSQL = sql.Render(&sq)
	return st, nil
}

func colIndex(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	return -1
}

// resumeSQL renders the shard query adjusted to resume a broken stream
// after consumed rows have already been delivered: the replica seeks
// straight to the next row through the ranked OFFSET path, so failover
// costs O(log n), not a re-scan.
func (st *strategy) resumeSQL(consumed int) string {
	if consumed == 0 {
		return st.shardSQL
	}
	rq := *st.shardQ
	rq.Offset = consumed
	if st.pushdown > 0 {
		rq.Limit = st.pushdown - consumed
	}
	return sql.Render(&rq)
}
