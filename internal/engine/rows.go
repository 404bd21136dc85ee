package engine

// The cursor layer: every enumeration path of the engine (flat
// projection, on-the-fly grouped aggregation and materialised aggregate
// ordering) is one enumCursor — a resumable step-at-a-time producer
// over a constant-delay enumerator of package frep. The flat-sort
// fallback and the COUNT(*) shortcut yield materialised rows through a
// sliceCursor, and a large unwindowed flat projection fans out through
// a parCursor (parallel.go). Rows wraps a rowCursor in the
// database/sql-shaped surface (Next/Scan/Columns/Err/Close) with
// context cancellation, OFFSET skipping and LIMIT accounting, and
// ForEach/Relation/Count are thin wrappers over the same cursors, so
// streaming and materialising callers see byte-identical output.

import (
	"context"
	"errors"
	"fmt"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/plan"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// ErrClosed is returned by Result and Rows methods used after Close:
// the pooled arena store backing the result may already be serving
// another query, so any further access would read recycled slabs.
var ErrClosed = errors.New("engine: result used after Close")

// ctxCheckEvery is how many cursor advances pass between context
// checks: frequent enough that cancelling stops a multi-million-row
// enumeration promptly, rare enough to stay off the per-row hot path.
const ctxCheckEvery = 256

// rowCursor is the step-at-a-time core of one enumeration path. step
// returns the next output row in a buffer reused across calls; ok
// false means exhausted. skip advances past up to n output rows (after
// HAVING, before LIMIT) as cheaply as the path allows, returning how
// many were skipped; fewer than n means the cursor is exhausted.
type rowCursor interface {
	step() (relation.Tuple, bool, error)
	skip(n int) (int, error)
}

// Rows is a streaming, pull-based view of a query result: the
// database/sql-style cursor of the engine. Obtain one with
// Result.Rows; iterate with Next, read with Scan (or Tuple for the raw
// reused buffer), and Close when done. A Rows honours its context —
// Next returns false and Err reports the context's error once it fires
// — and applies the query's OFFSET by skipping inside the enumerator,
// so no skipped prefix is ever materialised.
//
// A Rows is not safe for concurrent use. Closing the Rows does not
// close the Result it came from; closing the Result invalidates the
// Rows (Next returns false, Err reports ErrClosed).
type Rows struct {
	res     *Result
	ctx     context.Context
	cur     rowCursor
	cols    []string
	tuple   relation.Tuple
	err     error
	done    bool
	closed  bool
	toSkip  int
	limit   int
	emitted int
	sinceCk int
}

// Rows returns a streaming cursor over the result in the query's
// requested order, applying HAVING, OFFSET and LIMIT. The context
// governs the enumeration: cancel it to stop a long stream. Multiple
// sequential Rows (or ForEach) calls on one Result re-enumerate from
// the start.
func (r *Result) Rows(ctx context.Context) (*Rows, error) {
	if r.closed {
		return nil, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cur, err := r.newCursor(r.fanOutWindow())
	if err != nil {
		return nil, err
	}
	if pc, ok := cur.(*parCursor); ok {
		// Track parallel cursors so Result.Close joins their workers
		// before the pooled store is recycled.
		r.closers = append(r.closers, pc)
	}
	return &Rows{
		res:    r,
		ctx:    ctx,
		cur:    cur,
		cols:   r.Schema(),
		toSkip: r.Query.Offset,
		limit:  r.Query.Limit,
	}, nil
}

// Columns returns the output column names.
func (rs *Rows) Columns() []string { return rs.cols }

// Err returns the error that terminated iteration, if any. It is nil
// after a normal end of stream.
func (rs *Rows) Err() error { return rs.err }

// Close releases the cursor, joining any segment workers a parallel
// enumeration spawned. It is idempotent and always returns the
// iteration error, if any. Close does not close the underlying Result.
func (rs *Rows) Close() error {
	rs.closed = true
	rs.done = true
	rs.tuple = nil // Scan after Close must not re-deliver the last row
	if pc, ok := rs.cur.(*parCursor); ok {
		pc.close()
		rs.res.dropCloser(pc)
	}
	return rs.err
}

// fail records err and stops iteration. Segment workers are joined
// immediately — iteration is over, nothing will drain them.
func (rs *Rows) fail(err error) {
	rs.err = err
	rs.done = true
	rs.tuple = nil
	if pc, ok := rs.cur.(*parCursor); ok {
		pc.close()
	}
}

// checkCtx polls the context every ctxCheckEvery advances.
func (rs *Rows) checkCtx(force bool) bool {
	rs.sinceCk++
	if !force && rs.sinceCk < ctxCheckEvery {
		return true
	}
	rs.sinceCk = 0
	if err := rs.ctx.Err(); err != nil {
		rs.fail(err)
		return false
	}
	return true
}

// Next advances to the next row, returning false at the end of the
// stream, on error, or once the context is cancelled (check Err to
// distinguish). The first call also performs the OFFSET skip.
func (rs *Rows) Next() bool {
	if rs.closed || rs.done {
		return false
	}
	if rs.res.closed {
		rs.fail(ErrClosed)
		return false
	}
	if rs.toSkip > 0 {
		if !rs.checkCtx(true) {
			return false
		}
		// Ranked route first: position directly on the offset target via
		// subtree counts instead of stepping the odometer rs.toSkip times.
		if sk, ok := rs.cur.(rowSeeker); ok {
			if k, handled := sk.seekRows(rs.toSkip); handled {
				seekOffsets.Add(1)
				if k < rs.toSkip { // exhausted inside the skipped prefix
					rs.done = true
					return false
				}
				rs.toSkip = 0
			}
		}
		if rs.toSkip > 0 {
			skipOffsets.Add(1)
		}
		for rs.toSkip > 0 {
			chunk := rs.toSkip
			if chunk > ctxCheckEvery {
				chunk = ctxCheckEvery
			}
			k, err := rs.cur.skip(chunk)
			if err != nil {
				rs.fail(err)
				return false
			}
			rs.toSkip -= k
			if k < chunk { // exhausted inside the skipped prefix
				rs.done = true
				return false
			}
			if err := rs.ctx.Err(); err != nil {
				rs.fail(err)
				return false
			}
		}
	}
	if rs.limit > 0 && rs.emitted >= rs.limit {
		rs.done = true
		rs.tuple = nil
		return false
	}
	// Always poll the context on the first row so even a tiny result
	// honours an already-cancelled context; thereafter every
	// ctxCheckEvery rows.
	if !rs.checkCtx(rs.emitted == 0) {
		return false
	}
	t, ok, err := rs.cur.step()
	if err != nil {
		rs.fail(err)
		return false
	}
	if !ok {
		rs.done = true
		rs.tuple = nil // Scan after exhaustion must error, not repeat
		return false
	}
	rs.tuple = t
	rs.emitted++
	return true
}

// Tuple returns the current row. The slice is reused by Next; clone it
// to retain.
func (rs *Rows) Tuple() relation.Tuple { return rs.tuple }

// Scan copies the current row into dest, one target per column.
// Supported targets: *int64, *float64, *string, *bool, *values.Value
// and *any (which receives int64/float64/string/bool/nil like the
// database/sql driver). Integers widen into *float64 targets; a float
// column refuses an *int64 target rather than truncating.
func (rs *Rows) Scan(dest ...any) error {
	if rs.tuple == nil {
		return errors.New("engine: Scan called without a successful Next")
	}
	if len(dest) != len(rs.tuple) {
		return fmt.Errorf("engine: Scan got %d targets for %d columns", len(dest), len(rs.tuple))
	}
	for i, d := range dest {
		if err := scanValue(rs.tuple[i], d); err != nil {
			return fmt.Errorf("engine: Scan column %d (%s): %w", i, rs.cols[i], err)
		}
	}
	return nil
}

func scanValue(v values.Value, dest any) error {
	switch d := dest.(type) {
	case *values.Value:
		*d = v
	case *any:
		*d = GoValue(v)
	case *int64:
		// Float targets would silently truncate; refuse like database/sql.
		if v.Kind() != values.Int {
			return fmt.Errorf("cannot scan %s into *int64", v.Kind())
		}
		*d = v.Int()
	case *float64:
		if !v.IsNumeric() {
			return fmt.Errorf("cannot scan %s into *float64", v.Kind())
		}
		*d = v.AsFloat()
	case *string:
		if v.Kind() != values.String {
			*d = v.String()
		} else {
			*d = v.Str()
		}
	case *bool:
		if v.Kind() != values.Bool {
			return fmt.Errorf("cannot scan %s into *bool", v.Kind())
		}
		*d = v.Bool()
	default:
		return fmt.Errorf("unsupported Scan target %T", dest)
	}
	return nil
}

// GoValue converts an engine value to its plain Go representation:
// int64, float64, string, bool, nil, or []any for vectors.
func GoValue(v values.Value) any {
	switch v.Kind() {
	case values.Int:
		return v.Int()
	case values.Float:
		return v.Float()
	case values.String:
		return v.Str()
	case values.Bool:
		return v.Bool()
	case values.Vec:
		out := make([]any, v.VecLen())
		for i := range out {
			out[i] = GoValue(v.VecAt(i))
		}
		return out
	default: // Null
		return nil
	}
}

// newCursor builds the enumeration cursor for the query's path: flat
// projection for SPJ queries, on-the-fly grouped aggregation when the
// order is by group attributes, the aggregate node the f-plan ordered
// when ordering by an aggregate output (plan.AggregateOrder), and the
// flat sort when the plan could not. fanOut permits the flat-projection
// path to fan out across segment workers; see fanOutWindow.
func (r *Result) newCursor(fanOut bool) (rowCursor, error) {
	q := r.Query
	if r.fastCount != nil {
		// Bare COUNT(*) answered from the ranked root counts; the
		// aggregation plan never executed (see countStar).
		return &sliceCursor{rows: []relation.Tuple{{values.NewInt(*r.fastCount)}}}, nil
	}
	if !q.IsAggregate() {
		return r.newSPJCursor(fanOut)
	}
	if node, _, _, order := plan.AggregateOrder(q, r.Tree()); node != nil {
		return r.newAggOrderCursor(node, order)
	}
	if len(q.GroupBy) > 0 && orderOnAggregate(q) {
		return r.newSortedCursor()
	}
	return r.newGroupedCursor()
}

// enumerator is what enumCursor drives: frep's grouped enumerator, and
// its tuple enumerator through tupleEnum.
type enumerator interface {
	Next() (bool, error)
	Tuple() relation.Tuple
	Skip(n int) int
	Seek(k int) int
	SeekRanked() bool
	Total() int64
}

// tupleEnum adapts frep.StoreEnumerator, whose Next cannot fail, to
// enumerator.
type tupleEnum struct{ *frep.StoreEnumerator }

func (e tupleEnum) Next() (bool, error) { return e.StoreEnumerator.Next(), nil }

// enumCursor is the one cursor over an enumerator, serving every path:
// it copies the enumerator columns cols to the leading output columns,
// finalises the aggregate outputs from the enumerator columns fields
// when low is set, and drops rows the HAVING filter rejects. Skipping
// (and seek and total, seek.go) delegate to the enumerator unless a
// HAVING filter makes output positions diverge from enumerator
// positions, so no skipped row is assembled and no skipped group's
// aggregates are evaluated.
type enumCursor struct {
	en     enumerator
	cols   []int
	low    *ftree.Lowering
	fields []int
	having *havingFilter
	vals   []values.Value // the current row's field values
	out    relation.Tuple
}

func (c *enumCursor) step() (relation.Tuple, bool, error) {
	for {
		ok, err := c.en.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		t := c.en.Tuple()
		for i, j := range c.cols {
			c.out[i] = t[j]
		}
		if c.low != nil {
			for i, j := range c.fields {
				c.vals[i] = t[j]
			}
			c.low.FinalInto(c.out[len(c.cols):], c.vals)
		}
		if c.having.keep(c.out) {
			return c.out, true, nil
		}
	}
}

func (c *enumCursor) skip(n int) (int, error) {
	if c.having == nil {
		return c.en.Skip(n), nil
	}
	return skipBySteps(c, n)
}

// skipBySteps implements skip for cursors that cannot skip blind: rows
// are stepped (into the reused buffer, O(1) memory) and discarded.
func skipBySteps(c rowCursor, n int) (int, error) {
	k := 0
	for k < n {
		_, ok, err := c.step()
		if err != nil || !ok {
			return k, err
		}
		k++
	}
	return k, nil
}

// newSPJCursor builds the flat-projection cursor, fanned across segment
// workers when fanOut allows and the result is large enough.
func (r *Result) newSPJCursor(fanOut bool) (rowCursor, error) {
	var specs []frep.OrderSpec
	for _, o := range r.Query.OrderBy {
		specs = append(specs, frep.OrderSpec{Attr: o.Attr, Desc: o.Desc})
	}
	build := func() (*enumCursor, *frep.StoreEnumerator, error) {
		en, err := r.ARel.Enumerator(specs)
		if err != nil {
			return nil, nil, err
		}
		outs := r.Query.OutputAttrs()
		if len(outs) == 0 {
			outs = en.Schema()
		}
		idx, err := columnIndices(en.Schema(), outs)
		if err != nil {
			return nil, nil, err
		}
		return &enumCursor{en: tupleEnum{en}, cols: idx, out: make(relation.Tuple, len(idx))}, en, nil
	}
	probe, en, err := build()
	if err != nil {
		return nil, err
	}
	if !fanOut {
		return probe, nil
	}
	return r.fanOut(probe, en, build, len(specs) > 0 && specs[0].Desc)
}

// newGroupedCursor builds the on-the-fly grouped aggregation cursor
// (Example 1, scenario 3), ordered by the ORDER BY items that are group
// attributes (the sort fallback re-orders by the rest afterwards).
func (r *Result) newGroupedCursor() (*enumCursor, error) {
	q := r.Query
	low, err := query.Lower(q.Aggregates)
	if err != nil {
		return nil, err
	}
	inG := map[string]bool{}
	for _, g := range q.GroupBy {
		inG[g] = true
	}
	// Group slots: order-by attributes first, then remaining group
	// attributes in tree DFS order.
	var specs []frep.OrderSpec
	seen := map[string]bool{}
	for _, o := range q.OrderBy {
		if inG[o.Attr] {
			specs = append(specs, frep.OrderSpec{Attr: o.Attr, Desc: o.Desc})
			seen[o.Attr] = true
		}
	}
	for _, n := range r.Tree().Nodes() {
		if n.IsAgg() {
			continue
		}
		for _, a := range n.Attrs {
			if inG[a] && !seen[a] {
				specs = append(specs, frep.OrderSpec{Attr: a})
				seen[a] = true
			}
		}
	}
	ge, err := r.ARel.GroupEnumerator(specs, low.Fields())
	if err != nil {
		return nil, err
	}
	// The schema is the group columns followed by one column per field.
	schema := ge.Schema()
	nGroup := len(schema) - len(low.Fields())
	groupIdx, err := columnIndices(schema[:nGroup], q.GroupBy)
	if err != nil {
		return nil, err
	}
	fields := make([]int, len(low.Fields()))
	for i := range fields {
		fields[i] = nGroup + i
	}
	having, err := newHavingFilter(q)
	if err != nil {
		return nil, err
	}
	return &enumCursor{
		en:     ge,
		cols:   groupIdx,
		low:    low,
		fields: fields,
		having: having,
		vals:   make([]values.Value, len(fields)),
		out:    make(relation.Tuple, len(q.GroupBy)+len(q.Aggregates)),
	}, nil
}

// sliceCursor yields pre-materialised rows; the flat-sort fallback.
type sliceCursor struct {
	rows []relation.Tuple
	i    int
}

func (c *sliceCursor) step() (relation.Tuple, bool, error) {
	if c.i >= len(c.rows) {
		return nil, false, nil
	}
	t := c.rows[c.i]
	c.i++
	return t, true, nil
}

func (c *sliceCursor) skip(n int) (int, error) {
	left := len(c.rows) - c.i
	if n > left {
		n = left
	}
	c.i += n
	return n, nil
}
