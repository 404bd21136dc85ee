package cluster

// The stitcher: k-way merges shard row streams back into serial output
// order. The invariant the whole cluster package exists to uphold is
// that a distributed query's byte stream equals the serial server's:
// rows forward the exact bytes a shard produced (wire.Row keeps raw
// JSON), aggregate partials fold with ftree's table of monoids,
// and ties across shards break by shard index — which under contiguous
// ascending partition ranges is exactly the serial enumeration order.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/wire"
)

// parseVal decodes one raw JSON column value into an engine value, the
// inverse of wire.AppendValue. Numbers without a fraction or exponent
// decode as Int — matching how integer-valued results encode — so merge
// arithmetic and comparisons run in the same domain the serial engine
// used.
func parseVal(raw json.RawMessage) (values.Value, error) {
	t := bytes.TrimSpace(raw)
	if len(t) == 0 {
		return values.Value{}, fmt.Errorf("cluster: empty column value")
	}
	switch t[0] {
	case '"':
		var s string
		if err := json.Unmarshal(t, &s); err != nil {
			return values.Value{}, err
		}
		return values.NewString(s), nil
	case 't', 'f':
		var b bool
		if err := json.Unmarshal(t, &b); err != nil {
			return values.Value{}, err
		}
		return values.NewBool(b), nil
	case 'n':
		if !bytes.Equal(t, []byte("null")) {
			return values.Value{}, fmt.Errorf("cluster: bad value %q", t)
		}
		return values.NullValue(), nil
	case '[':
		var elems []json.RawMessage
		if err := json.Unmarshal(t, &elems); err != nil {
			return values.Value{}, err
		}
		vs := make([]values.Value, len(elems))
		for i, e := range elems {
			v, err := parseVal(e)
			if err != nil {
				return values.Value{}, err
			}
			vs[i] = v
		}
		return values.NewVec(vs), nil
	default:
		if !bytes.ContainsAny(t, ".eE") {
			var i int64
			if err := json.Unmarshal(t, &i); err == nil {
				return values.NewInt(i), nil
			}
		}
		var f float64
		if err := json.Unmarshal(t, &f); err != nil {
			return values.Value{}, fmt.Errorf("cluster: bad value %q: %w", t, err)
		}
		return values.NewFloat(f), nil
	}
}

// mrow is one shard row staged at the merge front: the raw bytes to
// forward, the parsed comparator key, and (aggregate modes) the parsed
// partial columns ready for the merge algebra.
type mrow struct {
	raw      wire.Row
	key      []values.Value
	partials []values.Value
	shard    int
}

func newMrow(st *strategy, row wire.Row, shard int) (*mrow, error) {
	if st.mode != modeStream {
		if want := st.nGroup + len(st.low.Fields()); len(row) != want {
			return nil, fmt.Errorf("cluster: shard %d row has %d columns, want %d", shard, len(row), want)
		}
	}
	mr := &mrow{raw: row, shard: shard, key: make([]values.Value, len(st.cmp))}
	for j, k := range st.cmp {
		if k.col < 0 || k.col >= len(row) {
			return nil, fmt.Errorf("cluster: shard %d row has no column %d", shard, k.col)
		}
		v, err := parseVal(row[k.col])
		if err != nil {
			return nil, err
		}
		mr.key[j] = v
	}
	if st.mode != modeStream {
		mr.partials = make([]values.Value, len(st.low.Fields()))
		for j := range st.low.Fields() {
			v, err := parseVal(row[st.nGroup+j])
			if err != nil {
				return nil, err
			}
			mr.partials[j] = v
		}
	}
	return mr, nil
}

// less orders merge-front rows: comparator keys first (respecting
// direction), then shard index — which reproduces the serial order
// because equal keys across shards can only arise from rows the serial
// enumeration would emit in partition-range (= shard) order.
func (st *strategy) less(a, b *mrow) bool {
	for j, k := range st.cmp {
		c := values.Compare(a.key[j], b.key[j])
		if k.desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return a.shard < b.shard
}

// sameKey reports whether two merge-front rows carry the same group key.
func (st *strategy) sameKey(a, b *mrow) bool {
	for j := range st.cmp {
		if values.Compare(a.key[j], b.key[j]) != 0 {
			return false
		}
	}
	return true
}

// merger holds one open shard stream per shard plus the staged head row
// of each; memory is O(shards), not O(result).
type merger struct {
	st      *strategy
	streams []*shardStream
	heads   []*mrow
}

// refill advances stream i to its next row (nil head = exhausted).
func (m *merger) refill(i int) error {
	m.heads[i] = nil
	row, err := m.streams[i].next()
	if err != nil || row == nil {
		return err
	}
	mr, err := newMrow(m.st, row, i)
	if err != nil {
		return err
	}
	m.heads[i] = mr
	return nil
}

// prime opens every shard stream and stages its first row. An error
// here happens before the response header is committed, so it can still
// travel as an HTTP error status.
func (m *merger) prime() error {
	for i := range m.streams {
		if err := m.refill(i); err != nil {
			return err
		}
	}
	return nil
}

// minHead returns the index of the smallest staged row, or -1 when all
// streams are exhausted. Linear scan: shard counts are single digits.
func (m *merger) minHead() int {
	best := -1
	for i, h := range m.heads {
		if h == nil {
			continue
		}
		if best < 0 || m.st.less(h, m.heads[best]) {
			best = i
		}
	}
	return best
}

func (m *merger) close() {
	for _, ss := range m.streams {
		if ss != nil {
			ss.close()
		}
	}
}

// mergeGroup pops the smallest group from the merge front, folding the
// partials of every shard that contributed a row for it (streams arrive
// sorted by group key, so all contributors are at the front together).
// It returns the finalised output row (group keys forwarded raw from
// the lowest contributing shard, aggregates re-encoded after the merge)
// plus the finalised aggregate values for HAVING and ORDER BY, or a nil
// row when the merge front is empty.
func (m *merger) mergeGroup() ([]json.RawMessage, []values.Value, error) {
	st := m.st
	i := m.minHead()
	if i < 0 {
		return nil, nil, nil
	}
	lead := m.heads[i]
	fields := st.low.Fields()
	acc := make([]values.Value, len(fields))
	for k, f := range fields {
		acc[k] = f.Fn.Identity()
	}
	frep.MergePartials(fields, acc, lead.partials)
	if err := m.refill(i); err != nil {
		return nil, nil, err
	}
	for {
		j := m.minHead()
		if j < 0 || !st.sameKey(m.heads[j], lead) {
			break
		}
		frep.MergePartials(fields, acc, m.heads[j].partials)
		if err := m.refill(j); err != nil {
			return nil, nil, err
		}
	}
	finals := make([]values.Value, len(st.columns)-st.nGroup)
	st.low.FinalInto(finals, acc)
	out := make([]json.RawMessage, 0, len(st.columns))
	out = append(out, lead.raw[:st.nGroup]...)
	for _, v := range finals {
		b, err := wire.AppendValue(nil, v)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, b)
	}
	return out, finals, nil
}

// keep evaluates the coordinator-held HAVING clauses over a group's
// finalised aggregate values.
func (st *strategy) keep(finals []values.Value) bool {
	for i, h := range st.having {
		if !h.Op.Holds(finals[st.havingCol[i]-st.nGroup], h.Const) {
			return false
		}
	}
	return true
}

// emitter applies the coordinator-held OFFSET, LIMIT and row cap to the
// stitched row sequence, mirroring the serial server's accounting:
// limit stops cleanly, the cap marks the response truncated.
type emitter struct {
	snk       wire.Sink
	frame     []byte
	offset    int
	limit     int
	maxRows   int
	skipped   int
	emitted   int
	truncated bool
}

// emit forwards one row, returning false when no further rows are
// wanted; a non-nil error means the sink's client went away.
func (e *emitter) emit(row []json.RawMessage) (bool, error) {
	if e.skipped < e.offset {
		e.skipped++
		return true, nil
	}
	if e.limit > 0 && e.emitted >= e.limit {
		return false, nil
	}
	if e.maxRows > 0 && e.emitted >= e.maxRows {
		e.truncated = true
		return false, nil
	}
	e.frame = wire.AppendRow(e.frame[:0], row)
	if err := e.snk.Row(e.frame); err != nil {
		return false, err
	}
	e.emitted++
	return true, nil
}

// gather fans the compiled strategy out over the shard groups and
// stitches the streams into snk. It returns a non-nil error only for
// failures before the response header was committed (the caller turns
// those into an HTTP error status); later failures travel in the
// trailer, like the serial server's.
func (co *Coordinator) gather(ctx context.Context, st *strategy, db string, cached bool, snk wire.Sink) error {
	n := len(co.groups)
	m := &merger{st: st, streams: make([]*shardStream, n), heads: make([]*mrow, n)}
	for i := range m.streams {
		m.streams[i] = &shardStream{co: co, ctx: ctx, shard: i, db: db, st: st}
	}
	defer m.close()
	if err := m.prime(); err != nil {
		return err
	}
	cols := st.columns
	if len(cols) == 0 {
		// SELECT *: adopt a shard's header — identical on every shard,
		// since all shards serve the same schema.
		for _, ss := range m.streams {
			if ss.header.Columns != nil {
				cols = ss.header.Columns
				break
			}
		}
	}
	if err := snk.Header(cols, cached); err != nil {
		return nil
	}

	em := &emitter{snk: snk, offset: st.offset, limit: st.limit, maxRows: co.maxRows}
	var streamErr error
loop:
	switch st.mode {
	case modeStream:
		for {
			i := m.minHead()
			if i < 0 {
				break loop
			}
			h := m.heads[i]
			cont, werr := em.emit(h.raw)
			if werr != nil {
				return nil
			}
			if !cont {
				break loop
			}
			if err := m.refill(i); err != nil {
				streamErr = err
				break loop
			}
		}
	case modeGroupStream:
		for {
			out, finals, err := m.mergeGroup()
			if err != nil {
				streamErr = err
				break loop
			}
			if out == nil {
				break loop
			}
			if !st.keep(finals) {
				continue
			}
			cont, werr := em.emit(out)
			if werr != nil {
				return nil
			}
			if !cont {
				break loop
			}
		}
	case modeBuffered:
		type brow struct {
			raw  []json.RawMessage
			sort []values.Value
		}
		var rows []brow
		for {
			out, finals, err := m.mergeGroup()
			if err != nil {
				streamErr = err
				break
			}
			if out == nil {
				break
			}
			if !st.keep(finals) {
				continue
			}
			key := make([]values.Value, len(st.orderBy))
			for j, k := range st.orderBy {
				if k.col < st.nGroup {
					v, err := parseVal(out[k.col])
					if err != nil {
						streamErr = err
						break
					}
					key[j] = v
				} else {
					key[j] = finals[k.col-st.nGroup]
				}
			}
			if streamErr != nil {
				break
			}
			rows = append(rows, brow{raw: out, sort: key})
		}
		if streamErr != nil {
			break loop
		}
		// Rows arrive in the serial base order; a stable sort by the
		// ORDER BY list over that order reproduces the serial stable
		// sort exactly, DESC ties included.
		sort.SliceStable(rows, func(a, b int) bool {
			for j, k := range st.orderBy {
				c := values.Compare(rows[a].sort[j], rows[b].sort[j])
				if k.desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		for _, r := range rows {
			cont, werr := em.emit(r.raw)
			if werr != nil {
				return nil
			}
			if !cont {
				break
			}
		}
	}
	errMsg := ""
	if streamErr != nil {
		errMsg = streamErr.Error()
	}
	snk.Done(em.emitted, em.truncated, errMsg)
	return nil
}
