package cluster

// The stitcher: k-way merges shard row streams back into serial output
// order. The invariant the whole cluster package exists to uphold is
// that a distributed query's byte stream equals the serial server's: a
// shard's row line is forwarded verbatim, only the columns the merge
// compares or folds are parsed (scan.go), aggregate partials fold with
// ftree's table of monoids, and ties across shards break by shard index
// — which under contiguous ascending partition ranges is exactly the
// serial enumeration order.

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/wire"
)

// mrow is one shard row staged at the merge front: the frame to
// forward, its column spans, the parsed comparator key, and (aggregate
// modes) the parsed partial columns ready for the merge algebra. Each
// shard owns one mrow that every refill overwrites, so a staged row is
// valid only until its shard's next refill.
type mrow struct {
	line     []byte
	cols     []span
	key      []values.Value
	partials []values.Value
	shard    int
}

// col returns the raw JSON of column c.
func (mr *mrow) col(c int) []byte { return mr.line[mr.cols[c].off:mr.cols[c].end] }

// stage parses the columns of a freshly read row that the merge needs.
func (st *strategy) stage(mr *mrow) error {
	if st.mode != modeStream {
		if want := st.nGroup + len(st.low.Fields()); len(mr.cols) != want {
			return fmt.Errorf("cluster: shard %d row has %d columns, want %d", mr.shard, len(mr.cols), want)
		}
	}
	mr.key = mr.key[:0]
	for _, k := range st.cmp {
		if k.col < 0 || k.col >= len(mr.cols) {
			return fmt.Errorf("cluster: shard %d row has no column %d", mr.shard, k.col)
		}
		v, err := parseVal(mr.col(k.col))
		if err != nil {
			return err
		}
		mr.key = append(mr.key, v)
	}
	if st.mode != modeStream {
		mr.partials = mr.partials[:0]
		for j := range st.low.Fields() {
			v, err := parseVal(mr.col(st.nGroup + j))
			if err != nil {
				return err
			}
			mr.partials = append(mr.partials, v)
		}
	}
	return nil
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

// sameKey reports whether two comparator keys are the same group key.
func sameKey(a, b []values.Value) bool {
	for j := range a {
		if values.Compare(a[j], b[j]) != 0 {
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
	heads   []*mrow // nil = exhausted
	rows    []mrow  // each shard's staging row

	// mergeGroup's scratch, reused across groups.
	lead   []values.Value // the comparator key of the group being folded
	acc    []values.Value
	finals []values.Value
	frame  []byte
}

func (co *Coordinator) newMerger(ctx context.Context, st *strategy, db string) *merger {
	n := len(co.groups)
	m := &merger{st: st, streams: make([]*shardStream, n), heads: make([]*mrow, n), rows: make([]mrow, n)}
	for i := range m.streams {
		m.streams[i] = &shardStream{co: co, ctx: ctx, shard: i, db: db, st: st}
		m.rows[i].shard = i
	}
	if st.mode != modeStream {
		m.acc = make([]values.Value, len(st.low.Fields()))
		m.finals = make([]values.Value, len(st.columns)-st.nGroup)
	}
	return m
}

// refill advances stream i to its next row (nil head = exhausted).
func (m *merger) refill(i int) error {
	m.heads[i] = nil
	mr := &m.rows[i]
	line, cols, err := m.streams[i].next(mr.cols[:0])
	mr.cols = cols
	if err != nil || line == nil {
		return err
	}
	mr.line = line
	if err := m.st.stage(mr); err != nil {
		return err
	}
	m.heads[i] = mr
	return nil
}

// prime opens every shard stream and stages its first row, all shards
// at once: opening waits for the shard to run the statement, so opening
// them in turn would serialise the scatter. An error here happens
// before the response header is committed, so it can still travel as
// an HTTP error status; of several, the lowest shard's wins.
func (m *merger) prime() error {
	errs := make([]error, len(m.streams))
	var wg sync.WaitGroup
	for i := range m.streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = m.refill(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
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
// It returns the finalised output frame — the group-key columns as the
// lowest contributing shard sent them, then the aggregates encoded
// after the merge — plus the finalised aggregate values for HAVING and
// ORDER BY, or a nil frame when the merge front is empty. Both are
// valid until the next call.
func (m *merger) mergeGroup() ([]byte, []values.Value, error) {
	st := m.st
	i := m.minHead()
	if i < 0 {
		return nil, nil, nil
	}
	// Refilling shard i overwrites its staged row, so what the group
	// still needs of it — the key and the group-key bytes — is copied
	// out first.
	lead := m.heads[i]
	m.lead = append(m.lead[:0], lead.key...)
	m.frame = append(m.frame[:0], '[')
	if st.nGroup > 0 {
		m.frame = append(m.frame, lead.line[lead.cols[0].off:lead.cols[st.nGroup-1].end]...)
	}
	fields := st.low.Fields()
	for k, f := range fields {
		m.acc[k] = f.Fn.Identity()
	}
	frep.MergePartials(fields, m.acc, lead.partials)
	if err := m.refill(i); err != nil {
		return nil, nil, err
	}
	for {
		j := m.minHead()
		if j < 0 || !sameKey(m.heads[j].key, m.lead) {
			break
		}
		frep.MergePartials(fields, m.acc, m.heads[j].partials)
		if err := m.refill(j); err != nil {
			return nil, nil, err
		}
	}
	st.low.FinalInto(m.finals, m.acc)
	for k, v := range m.finals {
		if k > 0 || st.nGroup > 0 {
			m.frame = append(m.frame, ',')
		}
		var err error
		if m.frame, err = wire.AppendValue(m.frame, v); err != nil {
			return nil, nil, err
		}
	}
	m.frame = append(m.frame, ']', '\n')
	return m.frame, m.finals, nil
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
	offset    int
	limit     int
	maxRows   int
	skipped   int
	emitted   int
	truncated bool
	// gone is set when the sink's client went away: nothing further may
	// be written, the trailer included.
	gone bool
}

// emit forwards one row frame, returning false when no further rows
// are wanted or the client is gone.
func (e *emitter) emit(frame []byte) bool {
	if e.skipped < e.offset {
		e.skipped++
		return true
	}
	if e.limit > 0 && e.emitted >= e.limit {
		return false
	}
	if e.maxRows > 0 && e.emitted >= e.maxRows {
		e.truncated = true
		return false
	}
	if err := e.snk.Row(frame); err != nil {
		e.gone = true
		return false
	}
	e.emitted++
	return true
}

// gather fans the compiled strategy out over the shard groups and
// stitches the streams into snk. It returns a non-nil error only for
// failures before the response header was committed (the caller turns
// those into an HTTP error status); later failures travel in the
// trailer, like the serial server's.
func (co *Coordinator) gather(ctx context.Context, st *strategy, db string, cached bool, snk wire.Sink) error {
	m := co.newMerger(ctx, st, db)
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
	streamErr := m.stitch(em)
	if em.gone {
		return nil
	}
	errMsg := ""
	if streamErr != nil {
		errMsg = streamErr.Error()
	}
	snk.Done(em.emitted, em.truncated, errMsg)
	return nil
}

// stitch merges the primed streams into em in the strategy's mode,
// returning the error that ended the merge early, if any.
func (m *merger) stitch(em *emitter) error {
	st := m.st
	switch st.mode {
	case modeStream:
		for {
			i := m.minHead()
			if i < 0 || !em.emit(m.heads[i].line) {
				return nil
			}
			if err := m.refill(i); err != nil {
				return err
			}
		}
	case modeGroupStream:
		for {
			frame, finals, err := m.mergeGroup()
			if err != nil || frame == nil {
				return err
			}
			if st.keep(finals) && !em.emit(frame) {
				return nil
			}
		}
	}
	// modeBuffered: ORDER BY keys are group columns, whose values the
	// merge already parsed into the comparator key, or aggregates.
	type brow struct {
		frame []byte
		sort  []values.Value
	}
	var rows []brow
	for {
		frame, finals, err := m.mergeGroup()
		if err != nil {
			return err
		}
		if frame == nil {
			break
		}
		if !st.keep(finals) {
			continue
		}
		key := make([]values.Value, len(st.orderBy))
		for j, k := range st.orderBy {
			if k.col >= st.nGroup {
				key[j] = finals[k.col-st.nGroup]
				continue
			}
			for c, kc := range st.cmp {
				if kc.col == k.col {
					key[j] = m.lead[c]
				}
			}
		}
		rows = append(rows, brow{frame: bytes.Clone(frame), sort: key})
	}
	// Rows arrive in the serial base order; a stable sort by the ORDER
	// BY list over that order reproduces the serial stable sort exactly,
	// DESC ties included.
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
		if !em.emit(r.frame) {
			break
		}
	}
	return nil
}
