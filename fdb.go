// Package fdb is a Go implementation of FDB, the main-memory query engine
// for factorised databases, extended with aggregates (count, sum, min,
// max, avg), GROUP BY, ORDER BY and LIMIT as described in
//
//	N. Bakibayev, T. Kočiský, D. Olteanu, J. Závodný.
//	"Aggregation and Ordering in Factorised Databases", PVLDB 6(14), 2013.
//
// A factorised database represents a relation as an algebraic expression
// over unions, products and singletons whose nesting structure is given
// by an f-tree. Factorisations can be exponentially more succinct than
// the relations they represent; FDB evaluates queries directly on the
// factorised form, using partial aggregation (the γ operator of the
// paper) and partial restructuring (the χ swap operator), and enumerates
// results — grouped, ordered, limited — with constant delay.
//
// # Quick start
//
//	db := fdb.Database{"Orders": orders, "Pizzas": pizzas, "Items": items}
//	q, _ := fdb.ParseSQL(`SELECT customer, SUM(price) AS revenue
//	                       FROM Orders, Pizzas, Items
//	                       WHERE pizza = pizza2 AND item = item2
//	                       GROUP BY customer ORDER BY revenue DESC`)
//	res, _ := fdb.NewEngine().Run(q, db)
//	rel, _ := res.Relation()
//
// To stream instead of materialising, use the cursor API: Result.Rows
// returns a database/sql-style cursor (Next/Scan/Columns/Err/Close)
// straight over the constant-delay enumerators, honouring a
// context.Context for cancellation and skipping LIMIT/OFFSET pages
// inside the enumerator. Engine.RunContext, Engine.PrepareContext and
// PreparedQuery.ExecContext thread the same context through planning
// and execution. The top-level package driver wraps
// all of this in a registered "fdb" database/sql driver.
//
// For read-optimised workloads, materialise a view once as a
// factorisation and run many queries against it with Engine.RunOnView;
// the view is never modified. For repeated statements, compile once with
// Engine.Prepare and execute many times (concurrently, if desired) with
// PreparedQuery.Exec — cmd/fdbserver builds an HTTP query service with
// an LRU plan cache on exactly this split.
//
// The packages under internal/ implement the paper's substrates: values
// and relations, f-trees with the path constraint and fractional-edge-
// cover size bounds (solved by a built-in simplex LP), factorised
// representations with the Section 3.2 aggregation algorithms and
// constant-delay enumerators, the f-plan operators, the greedy and
// exhaustive (Dijkstra) optimisers of Section 5, a relational baseline
// engine (the paper's "RDB") with lazy and eager (Yan–Larson)
// aggregation, the Section 6 workload generator, and a SQL front-end.
package fdb

import (
	"io"

	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/values"
)

// Value is a typed scalar value (int64, float64, string, bool, or a small
// vector used by composite aggregates).
type Value = values.Value

// NewInt returns an integer Value.
func NewInt(v int64) Value { return values.NewInt(v) }

// NewFloat returns a floating-point Value.
func NewFloat(v float64) Value { return values.NewFloat(v) }

// NewString returns a string Value.
func NewString(v string) Value { return values.NewString(v) }

// NewBool returns a boolean Value.
func NewBool(v bool) Value { return values.NewBool(v) }

// Tuple is one row of a relation.
type Tuple = relation.Tuple

// Relation is an in-memory relation: a named list of tuples over
// attributes.
type Relation = relation.Relation

// NewRelation creates a relation, validating attribute uniqueness and
// tuple arity.
func NewRelation(name string, attrs []string, tuples []Tuple) (*Relation, error) {
	return relation.New(name, attrs, tuples)
}

// ReadCSV reads a relation from CSV with a header row; fields parse as
// int, then float, then string.
var ReadCSV = relation.ReadCSV

// Query is the logical query: joins expressed as equality selections over
// a product of relations, filters, aggregation with GROUP BY, ORDER BY
// and LIMIT (Section 2 of the paper).
type Query = query.Query

// Aggregate is one aggregation in a query's SELECT list.
type Aggregate = query.Aggregate

// Equality is an attribute equality (join condition).
type Equality = query.Equality

// Filter is a comparison with a constant.
type Filter = query.Filter

// OrderItem is one ORDER BY entry.
type OrderItem = query.OrderItem

// Aggregation functions for Aggregate.Fn.
const (
	Count = query.Count
	Sum   = query.Sum
	Min   = query.Min
	Max   = query.Max
	Avg   = query.Avg
)

// ParseSQL parses a SELECT statement of the supported subset into a
// Query.
var ParseSQL = sql.Parse

// Database is a catalogue of named flat relations. A query reads each
// relation through one factorisation per path order, made on first
// demand and kept as long as the relation, so a relation must not be
// modified once a query has read it.
type Database = engine.DB

// Engine is the FDB query engine: it plans and executes queries over
// flat relations (Run, Prepare) or materialised factorised views
// (RunOnView), always on the arena-backed factorised representation.
// Every restructuring, ordering by an aggregate included, is planned as
// an f-plan operator; enumerating a Result runs none. The zero value
// disables partial aggregation; use NewEngine for the paper's default
// configuration. An Engine memoises plans by query shape (see
// engine.Engine.Prepare), so it must not be copied after first use.
type Engine = engine.Engine

// NewEngine returns an engine with eager partial aggregation enabled and
// the greedy optimiser (the paper's configuration).
func NewEngine() *Engine { return engine.New() }

// Result is an evaluated query; stream it with Rows (the cursor API),
// enumerate it with ForEach, or materialise it with Relation. The
// factorised output ("FDB f/o") is Result.ARel; when operators ran,
// over relations or a view, its store is pooled, so it is valid only
// until Close (Clone it to keep it — MaterialiseView does). Call
// Result.Close when done to recycle the query's store; Close is
// idempotent, and using a Result after Close returns ErrResultClosed.
type Result = engine.Result

// Rows is a streaming, pull-based cursor over a query result
// (database/sql-style Next/Scan/Columns/Err/Close), obtained with
// Result.Rows. It honours its context during enumeration and applies
// the query's OFFSET by skipping inside the constant-delay enumerator,
// so a LIMIT n OFFSET m page costs O(n) output work regardless of how
// deep the page sits. For the idiomatic database/sql surface over the
// same cursors, see package driver.
type Rows = engine.Rows

// ErrResultClosed is returned when a Result (or a Rows derived from
// it) is used after Result.Close has recycled its pooled store.
var ErrResultClosed = engine.ErrClosed

// GoValue converts an engine Value to its plain Go representation:
// int64, float64, string, bool, nil, or []any for vectors.
var GoValue = engine.GoValue

// PreparedQuery is a compiled query: the chosen per-relation path orders
// plus the optimised f-plan. Prepare once with Engine.Prepare and execute
// many times with Exec; a PreparedQuery is immutable and safe for
// concurrent Exec calls, which is the basis of fdbserver's plan cache.
// Statements of one shape that differ only in filter constants,
// operators, HAVING, LIMIT or OFFSET share one plan template. A
// PreparedQuery holds no data: each relation is factorised once per
// path order, on the first execution that asks for it (a catalogue's
// stored order is its own store), and shared by every execution, so a
// relation must not be modified once a query has read it.
type PreparedQuery = engine.Prepared

// NormalizeSQL canonicalises a SQL statement's spelling (whitespace,
// keyword case, trailing semicolon) without parsing it, for use as a
// plan-cache key.
var NormalizeSQL = sql.Normalize

// ParStats are the cumulative intra-query parallelism counters: queries
// executed with a parallelism budget above 1 and segment workers
// spawned per layer (enumeration cursors, f-plan operators), plus
// pooled-store returns. EvalWorkers is always 0: aggregate evaluation
// runs serially. See Engine.Parallelism.
type ParStats = engine.ParStats

// ParallelStats returns the process-wide intra-query parallelism
// counters (fdbserver surfaces them at /stats).
var ParallelStats = engine.ParallelStats

// OffsetStats are the cumulative OFFSET routing counters: how many
// OFFSET clauses were applied by ranked direct Seek (O(depth × log
// fanout) via the subtree-count index) versus the linear skip loop.
type OffsetStats = engine.OffsetStats

// SeekSkipStats returns the process-wide OFFSET routing counters
// (fdbserver surfaces them at /stats).
var SeekSkipStats = engine.SeekSkipStats

// Factorisation is a factorised relation: an f-tree (Tree) plus the
// representation over it, held in one arena store (Store) and addressed
// by one root node per f-tree root (Roots); see ARCHITECTURE.md's
// "Storage layout". Obtain one with Factorise, MaterialiseView or
// ReadView, and query it with Engine.RunOnView, which never modifies
// it; it must not be modified once a query has read it.
type Factorisation = fops.ARel

// FTree is a factorisation tree: the schema and nesting structure of a
// factorisation (Definition 2 of the paper).
type FTree = ftree.Forest

// NewFTree returns an empty f-tree forest. Add base relations as linear
// paths with AddRelationPath, or build richer shapes via the internal
// ftree package types exposed on Forest.
func NewFTree() *FTree { return ftree.New() }

// Factorise represents a relation as a factorisation over the given
// f-tree, verifying the tree's independence assumptions against the data.
// A linear-path f-tree (NewFTree + AddRelationPath) is always valid.
func Factorise(rel *Relation, tree *FTree) (*Factorisation, error) {
	return fops.FromRelationStore(frep.NewStore(), rel, tree)
}

// MaterialiseView runs a join query and returns its factorised result for
// reuse as a read-optimised view. The view owns its store: it is a copy
// of the query's pooled result, which is closed before returning, so the
// view stays valid however many queries run afterwards.
func MaterialiseView(e *Engine, q *Query, db Database) (*Factorisation, error) {
	res, err := e.Run(q, db)
	if err != nil {
		return nil, err
	}
	defer res.Close()
	view, _ := res.ARel.Clone()
	return view, nil
}

// Catalog is a database loaded from a catalogue snapshot: the flat
// relations plus their stored factorisations, which executions read in
// place whenever a plan keeps a relation's stored path order (see
// SaveCatalog / LoadCatalogFile). Close releases the snapshot's backing
// bytes; mmap-loaded catalogues must not be used after Close.
type Catalog = engine.Catalog

// SaveCatalog factorises every relation of db and writes a versioned,
// checksummed catalogue snapshot (schemas and factorised arena stores,
// the only stored form of the tuples) to w. The encoding is canonical: saving the same data always
// produces the same bytes.
var SaveCatalog = engine.SaveCatalog

// SaveCatalogFile is SaveCatalog writing atomically to path (temp file,
// fsync, rename), so readers never observe a partial snapshot.
var SaveCatalogFile = engine.SaveCatalogFile

// LoadCatalog reads a catalogue snapshot from r; see LoadCatalogFile for
// the zero-copy file path.
var LoadCatalog = engine.LoadCatalog

// LoadCatalogFile loads the catalogue snapshot at path. With mmap set
// the slabs are used in place (load time is O(metadata); pages fault in
// on demand); otherwise the file is read with one contiguous read.
var LoadCatalogFile = engine.LoadCatalogFile

// Statement is a parsed SQL statement: either a *Query (SELECT) or a
// *Mutation (INSERT / DELETE / UPSERT).
type Statement = query.Statement

// Mutation is one data-modification statement: INSERT INTO ... VALUES,
// DELETE FROM ... WHERE, or UPSERT INTO ... VALUES (replace keyed on the
// relation's first attribute). Apply it to a MutableCatalog.
type Mutation = query.Mutation

// Mutation verbs for Mutation.Op.
const (
	OpInsert = query.OpInsert
	OpDelete = query.OpDelete
	OpUpsert = query.OpUpsert
)

// ParseStatement parses one SQL statement — SELECT, INSERT, DELETE or
// UPSERT — dispatching on the leading keyword.
var ParseStatement = sql.ParseStatement

// MutableCatalog is a durable, mutable database directory: an immutable
// catalogue snapshot plus a checksummed write-ahead log and, per
// written relation, an in-memory factorised overlay. Apply executes mutations durably (group-committed WAL),
// View returns lock-free immutable snapshots for querying, and Compact
// folds the log back into a fresh snapshot. See ARCHITECTURE.md's
// "Write path".
type MutableCatalog = engine.MutableCatalog

// MutableStats is a point-in-time snapshot of a mutable catalogue's
// write-path gauges (generation, rows per verb, rows inserted and
// deleted since the last compaction, WAL and compaction counters).
type MutableStats = engine.MutableStats

// AutoCompactConfig tunes MutableCatalog.StartAutoCompact thresholds.
type AutoCompactConfig = engine.AutoCompactConfig

// CreateMutable initialises dir with a snapshot of db and an empty WAL,
// returning the opened mutable catalogue.
var CreateMutable = engine.CreateMutable

// OpenMutable opens the mutable catalogue at dir, replaying the WAL on
// top of its snapshot; the recovered state is byte-identical to the
// acknowledged pre-crash state.
var OpenMutable = engine.OpenMutable

// ErrCompactionRunning is returned by MutableCatalog.Compact when a
// compaction is already in flight.
var ErrCompactionRunning = engine.ErrCompactionRunning

// WriteView writes a factorised view to w: a CRC-32C-checked f-tree and
// root-id block, then one checksummed arena snapshot (as catalogues use)
// of just the nodes the roots reach, shared subtrees once. Canonical.
func WriteView(w io.Writer, v *Factorisation) error {
	return catalog.WriteView(w, v.Tree, v.Store, v.Roots)
}

// ReadView reads a view written by WriteView, verifying its checksums,
// f-tree, root ids, representation invariants and canonical encoding.
func ReadView(r io.Reader) (*Factorisation, error) {
	tree, store, roots, err := catalog.ReadView(r)
	if err != nil {
		return nil, err
	}
	return &Factorisation{Tree: tree, Store: store, Roots: roots}, nil
}
