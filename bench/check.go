package main

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/sql"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a is the 64-bit FNV-1a hash of b, inlined so hashing a response
// line allocates nothing.
func fnv1a(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// rowHash folds the encoded rows of one result into a single value:
// order-sensitive when the statement's ORDER BY is total, a multiset
// hash (commutative sum) otherwise, because the engine and the flat
// baseline are free to emit unordered rows in different orders.
type rowHash struct {
	ordered bool
	sum     uint64
	rows    int
}

func (h *rowHash) add(line []byte) {
	x := fnv1a(line)
	if h.ordered {
		h.sum = h.sum*fnvPrime + x
	} else {
		h.sum += x
	}
	h.rows++
}

// ref is what a correct response must match: its row count and row hash
// for reads, its rows-affected count for writes (hash unused).
type ref struct {
	rows int
	hash uint64
}

func (h *rowHash) ref() ref { return ref{rows: h.rows, hash: h.sum} }

// encodeRow renders one flat tuple exactly as the server's NDJSON
// stream does (fdb.GoValue per column through encoding/json), without
// the trailing newline.
func encodeRow(t relation.Tuple, scratch []any) ([]byte, error) {
	scratch = scratch[:0]
	for _, v := range t {
		scratch = append(scratch, fdb.GoValue(v))
	}
	return json.Marshal(scratch)
}

// hashTuples is the reference hash of a flat result.
func hashTuples(tuples []relation.Tuple, ordered bool) (ref, error) {
	h := rowHash{ordered: ordered}
	var scratch []any
	for _, t := range tuples {
		line, err := encodeRow(t, scratch)
		if err != nil {
			return ref{}, err
		}
		h.add(line)
	}
	return h.ref(), nil
}

// oracle answers statements with the flat relational baseline
// (internal/rdb) over the same relations the server was given. One
// baseline run serves every LIMIT/OFFSET page of the same query: the
// page is cut from the full ordered result, which is only well defined
// because every paged statement in this benchmark has a total ORDER BY.
type oracle struct {
	db      rdb.DB
	full    map[string]*oracleRun // keyed by the rendered query without LIMIT/OFFSET
	seconds float64               // total time spent inside rdb and hashing
}

type oracleRun struct {
	rel    *relation.Relation
	flatMs float64 // wall time of the rdb run
}

func newOracle(db rdb.DB) *oracle {
	return &oracle{db: db, full: map[string]*oracleRun{}}
}

// run evaluates the statement's query without its LIMIT/OFFSET.
func (o *oracle) run(q *query.Query) (*oracleRun, error) {
	unpaged := *q
	unpaged.Limit, unpaged.Offset = 0, 0
	key := sql.Render(&unpaged)
	if r, ok := o.full[key]; ok {
		return r, nil
	}
	start := time.Now()
	rel, err := rdb.New().Run(&unpaged, o.db)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", key, err)
	}
	r := &oracleRun{rel: rel, flatMs: msSince(start)}
	o.seconds += r.flatMs / 1e3
	o.full[key] = r
	return r, nil
}

// count is the size of the statement's result ignoring LIMIT/OFFSET
// (used to place deep OFFSETs).
func (o *oracle) count(sqlText string) (int, error) {
	q, err := sql.Parse(sqlText)
	if err != nil {
		return 0, err
	}
	r, err := o.run(q)
	if err != nil {
		return 0, err
	}
	return len(r.rel.Tuples), nil
}

// answer returns the reference for a read statement and the wall time
// of the flat baseline run that produced it.
func (o *oracle) answer(st *stmt) (ref, float64, error) {
	q, err := sql.Parse(st.sql)
	if err != nil {
		return ref{}, 0, fmt.Errorf("oracle: %s: %w", st.name, err)
	}
	r, err := o.run(q)
	if err != nil {
		return ref{}, 0, err
	}
	start := time.Now()
	tuples := r.rel.Tuples
	if q.Offset > 0 {
		if q.Offset > len(tuples) {
			tuples = nil
		} else {
			tuples = tuples[q.Offset:]
		}
	}
	if q.Limit > 0 && q.Limit < len(tuples) {
		tuples = tuples[:q.Limit]
	}
	want, err := hashTuples(tuples, st.ordered)
	o.seconds += time.Since(start).Seconds()
	return want, r.flatMs, err
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// release drops the cached flat results once every reference has been
// taken, so nothing timed carries them as live heap.
func (o *oracle) release() { o.full = nil }
