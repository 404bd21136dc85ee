// Package server implements the fdbserver HTTP/JSON query service: one
// or more databases are loaded into a shared read-only in-memory store
// and queried concurrently over POST /query, executing through the fdb
// facade.
//
// The hot path is lock-free with respect to the data: base relations are
// never mutated, f-plan operators build new factorisation structure
// rather than rewriting inputs, and every request enumerates its own
// result, so any number of readers can share one store. Every served
// relation is factorised once per path order, on the first query that
// asks for it (a catalogue's stored order is its own store), and
// shared by every later query; a relation must not be modified once a
// query has read it. A plan with f-plan operators starts from a slab
// copy of its bases in a pooled store and returns it when done
// (Result.Close), while an operator-free plan over one relation
// enumerates its base itself and pools nothing. Each row is encoded once,
// from its values into bytes (wire.AppendTuple), and handed to the
// response sink the request's transport selects (wire.NewSink) — the
// same encoder and sinks the cluster coordinator uses, so the two
// cannot drift apart byte-wise. The only shared mutable state is the
// per-database LRU plan cache (package cache), which maps normalised
// SQL text to prepared plans so repeated queries skip parsing,
// path-order search and f-plan optimisation, and the metrics window
// behind /stats. A bounded worker pool (Config.Workers) caps the number
// of queries executing simultaneously; excess requests wait for a slot
// or give up when their context is cancelled.
//
// Endpoints:
//
//	POST /query     {"sql": "...", "db": "name"} → columns + rows JSON
//	POST /exec      {"sql": "...", "db": "name"} → rows affected; DML
//	                (INSERT/DELETE/UPSERT) against a mutable database
//	POST /compact   fold a mutable database's WAL into a fresh snapshot
//	POST /snapshot  persist catalogues atomically to their configured
//	                snapshot paths (Config.Snapshots)
//	POST /shard/install  accept a catalogue snapshot (raw .fdbcat bytes)
//	                and hot-swap it into the served set (Config.ShardDir;
//	                how a coordinator ships shards to workers)
//	GET  /healthz   liveness probe (503 once draining)
//	GET  /stats     query counters, latency percentiles, cache hit rates,
//	                write and WAL/compaction gauges
//
// Databases configured through Config.Mutables are writable: queries run
// against the catalogue's current lock-free view (each write publishes a
// new immutable view, so in-flight queries are never disturbed), and
// /exec applies mutations durably through the write-ahead log.
//
// Shutdown is ordered: Drain refuses new work and waits out in-flight
// requests (streaming responses, snapshot writes) so the process can
// exit without cutting a cursor off mid-row.
//
// A request with "Accept: application/x-ndjson" streams instead of
// buffering: the response is newline-delimited JSON — a header object
// {"columns": ...}, one array per row straight off the engine's
// cursor, and a trailer object {"rowCount": ...} — so the first row
// arrives before enumeration completes and response memory stays O(1)
// in the result size. The stream is driven by the request context:
// a client that disconnects stops the enumeration promptly.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/server/cache"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/wire"
)

// Config configures a Server.
type Config struct {
	// Databases maps database names to their relations. The maps and
	// relations must not be modified after the server starts serving.
	Databases map[string]fdb.Database
	// DefaultDB names the database used when a request omits "db".
	// Optional when exactly one database is configured.
	DefaultDB string
	// Workers bounds the number of concurrently executing queries;
	// defaults to GOMAXPROCS.
	Workers int
	// Parallelism bounds the intra-query parallelism of each executing
	// query (segment workers over the factorised representation; see
	// fdb.Engine.Parallelism): 0 means GOMAXPROCS, 1 disables. On a
	// loaded server inter-query concurrency (Workers) usually saturates
	// the cores already; raise this for latency-sensitive workloads
	// with few concurrent heavy queries.
	Parallelism int
	// CacheSize is the per-database plan cache capacity in entries;
	// defaults to 256.
	CacheSize int
	// MaxRows caps the number of rows returned per query (the response
	// is marked truncated when it applies); 0 means unlimited.
	MaxRows int
	// Snapshots maps database names to catalogue snapshot paths. A
	// database with a path here can be persisted through POST /snapshot:
	// the catalogue (schemas and factorised stores) is written
	// atomically — temp file, fsync, rename — so a crash mid-write never
	// clobbers the previous snapshot. Databases without a path are
	// skipped by /snapshot.
	Snapshots map[string]string
	// Mutables maps database names to opened mutable catalogues; these
	// databases accept DML through POST /exec and serve queries against
	// the catalogue's current view. Names must not collide with
	// Databases. The server does not close the catalogues; the caller
	// owns their lifecycle (close after Drain).
	Mutables map[string]*fdb.MutableCatalog
	// ShardDir enables the POST /shard/install endpoint: a coordinator
	// ships a catalogue snapshot (shard) as the request body, the server
	// persists it atomically under this directory, mmaps it, and
	// hot-swaps it into the served database set without interrupting
	// in-flight queries. Empty disables the endpoint. With ShardDir set
	// the server may start with no databases at all (a bare worker
	// awaiting its shard); snapshots persisted by a previous run are
	// reloaded at startup, so a worker restarts warm without a re-ship.
	ShardDir string
}

// database is one served database with its private plan cache. Exactly
// one of db (static, immutable) and mut (writable) is set; cat is
// additionally set when the data is an installed shard snapshot the
// server owns (and must eventually close).
type database struct {
	name  string
	db    fdb.Database
	mut   *fdb.MutableCatalog
	cat   *fdb.Catalog
	plans *cache.LRU
}

// data returns the relations to query: the static map, or the mutable
// catalogue's current lock-free view.
func (d *database) data() fdb.Database {
	if d.mut != nil {
		return d.mut.View()
	}
	return d.db
}

// Server is the HTTP query service. Create with New; it implements
// http.Handler.
type Server struct {
	eng       *fdb.Engine
	sem       chan struct{}
	maxRows   int
	cacheSize int
	snapshots map[string]string
	shardDir  string
	met       *metrics
	mux       *http.ServeMux

	// dbMu guards the served database set and the default name: shard
	// installs hot-swap entries while queries resolve names under the
	// read lock. retired holds snapshots superseded by an install; they
	// stay mapped until the server drains, because in-flight queries
	// (and cached plans) may still alias their bytes.
	dbMu      sync.RWMutex
	dbs       map[string]*database
	defaultDB string
	retired   []*fdb.Catalog

	// Write-path counters (mutable databases only).
	execs       atomic.Uint64
	execErrors  atomic.Uint64
	rowsWritten atomic.Int64
	installs    atomic.Uint64

	// gate admits requests (including streaming responses and snapshot
	// writes) until StartDrain/Drain, and Drain waits them out before
	// the process may exit.
	gate wire.Gate
}

// New builds a Server from the configuration.
func New(cfg Config) (*Server, error) {
	total := len(cfg.Databases) + len(cfg.Mutables)
	if total == 0 && cfg.ShardDir == "" {
		return nil, errors.New("server: no databases configured")
	}
	for name := range cfg.Mutables {
		if _, dup := cfg.Databases[name]; dup {
			return nil, fmt.Errorf("server: database %q configured as both static and mutable", name)
		}
	}
	defaultDB := cfg.DefaultDB
	if defaultDB == "" {
		if total > 1 {
			return nil, errors.New("server: DefaultDB required with multiple databases")
		}
		for name := range cfg.Databases {
			defaultDB = name
		}
		for name := range cfg.Mutables {
			defaultDB = name
		}
	}
	if defaultDB != "" {
		if _, ok := cfg.Databases[defaultDB]; !ok {
			if _, ok := cfg.Mutables[defaultDB]; !ok {
				return nil, fmt.Errorf("server: default database %q not configured", defaultDB)
			}
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cacheSize := cfg.CacheSize
	if cacheSize <= 0 {
		cacheSize = 256
	}
	eng := fdb.NewEngine()
	eng.Parallelism = cfg.Parallelism
	s := &Server{
		eng:       eng,
		dbs:       make(map[string]*database, total),
		defaultDB: defaultDB,
		sem:       make(chan struct{}, workers),
		maxRows:   cfg.MaxRows,
		cacheSize: cacheSize,
		snapshots: cfg.Snapshots,
		shardDir:  cfg.ShardDir,
		met:       newMetrics(),
		mux:       http.NewServeMux(),
	}
	for name := range cfg.Snapshots {
		if _, ok := cfg.Databases[name]; ok {
			continue
		}
		if _, ok := cfg.Mutables[name]; ok {
			continue
		}
		return nil, fmt.Errorf("server: snapshot path for unknown database %q", name)
	}
	for name, db := range cfg.Databases {
		s.dbs[name] = &database{name: name, db: db, plans: cache.New(cacheSize)}
	}
	for name, mut := range cfg.Mutables {
		s.dbs[name] = &database{name: name, mut: mut, plans: cache.New(cacheSize)}
	}
	if cfg.ShardDir != "" {
		// Warm restart: shards installed in a previous run were
		// persisted under ShardDir by /shard/install; reload them so a
		// worker comes back serving without a re-ship. Sorted glob so
		// the implicit default database is deterministic.
		paths, err := filepath.Glob(filepath.Join(cfg.ShardDir, "*.fdbcat"))
		if err != nil {
			return nil, err
		}
		sort.Strings(paths)
		for _, p := range paths {
			name := strings.TrimSuffix(filepath.Base(p), ".fdbcat")
			if _, taken := s.dbs[name]; taken {
				continue // explicit -data/-mutable config wins
			}
			cat, err := fdb.LoadCatalogFile(p, true)
			if err != nil {
				s.closeOwned()
				return nil, fmt.Errorf("server: reloading shard %s: %w", p, err)
			}
			s.dbs[name] = &database{name: name, db: cat.DB, cat: cat, plans: cache.New(cacheSize)}
			if s.defaultDB == "" {
				s.defaultDB = name
			}
		}
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/exec", s.handleExec)
	s.mux.HandleFunc("/compact", s.handleCompact)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/shard/install", s.handleShardInstall)
	return s, nil
}

// lookup resolves a request's database name (empty selects the default)
// to its served entry under the read lock, so resolution is stable
// against a concurrent shard install.
func (s *Server) lookup(name string) (*database, string, bool) {
	s.dbMu.RLock()
	defer s.dbMu.RUnlock()
	if name == "" {
		name = s.defaultDB
	}
	d, ok := s.dbs[name]
	return d, name, ok
}

// StartDrain transitions the server into shutdown without waiting: new
// queries and snapshot writes are refused with 503 Service Unavailable
// and /healthz turns unhealthy so load balancers stop routing. Call it
// before closing the listener so clients on kept-alive connections get
// a clean 503 instead of a reset; Drain calls it implicitly.
func (s *Server) StartDrain() { s.gate.StartDrain() }

// Drain is StartDrain plus the wait: it blocks until every in-flight
// request — including streaming responses holding open cursors and
// snapshot writes awaiting their atomic rename — has completed, or ctx
// expires. The process must not exit until Drain returns: exiting
// earlier would tear down enumerations mid-row. Drain is idempotent
// and safe to call concurrently.
func (s *Server) Drain(ctx context.Context) error {
	if err := s.gate.Drain(ctx); err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	s.closeOwned()
	return nil
}

// closeOwned releases the mmap'd snapshots the server owns — installed
// shards and snapshots retired by later installs. Only safe once the
// server has drained: no in-flight query may still alias their bytes.
func (s *Server) closeOwned() {
	s.dbMu.Lock()
	cats := s.retired
	s.retired = nil
	for _, d := range s.dbs {
		if d.cat != nil {
			cats = append(cats, d.cat)
			d.cat = nil
		}
	}
	s.dbMu.Unlock()
	for _, c := range cats {
		_ = c.Close()
	}
}

// Draining reports whether StartDrain or Drain has been called.
func (s *Server) Draining() bool { return s.gate.Draining() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// QueryRequest is the POST /query body (a wire.QueryRequest; the NDJSON
// protocol frames live in internal/wire, specified in docs/PROTOCOL.md).
type QueryRequest = wire.QueryRequest

// QueryResponse is the buffered POST /query success body as a client
// decodes it; the server writes that body through wire.NewSink.
type QueryResponse struct {
	Columns       []string `json:"columns"`
	Rows          [][]any  `json:"rows"`
	RowCount      int      `json:"rowCount"`
	Truncated     bool     `json:"truncated,omitempty"`
	Cached        bool     `json:"cached"`
	ElapsedMillis float64  `json:"elapsedMillis"`
}

// errorResponse is the JSON body of every non-200 response.
type errorResponse = wire.ErrorBody

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST"})
		return
	}
	if !s.gate.Begin() {
		wire.WriteJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is shutting down"})
		return
	}
	defer s.gate.End()
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON body: " + err.Error()})
		return
	}
	if req.SQL == "" {
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: `missing "sql"`})
		return
	}
	d, name, ok := s.lookup(req.DB)
	if !ok {
		wire.WriteJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown database %q", name)})
		return
	}

	// One worker slot covers planning, execution and (for NDJSON)
	// streaming; waiting requests abandon the queue when the client goes
	// away.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		wire.WriteJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "cancelled while waiting for a worker"})
		return
	}

	start := time.Now()
	failed := s.query(w, r, d, req.SQL)
	s.met.record(time.Since(start), failed)
}

// ExecRequest is the POST /exec body.
type ExecRequest struct {
	// SQL is the DML statement (INSERT / DELETE / UPSERT) to execute.
	SQL string `json:"sql"`
	// DB names the target database; empty selects the default.
	DB string `json:"db,omitempty"`
}

// ExecResponse is the POST /exec success body.
type ExecResponse struct {
	RowsAffected  int64   `json:"rowsAffected"`
	Generation    uint64  `json:"generation"`
	ElapsedMillis float64 `json:"elapsedMillis"`
}

// handleExec applies one DML statement to a mutable database. The
// response is written only after the statement's WAL record has been
// group-committed, so an acknowledged write survives a crash.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST"})
		return
	}
	if !s.gate.Begin() {
		wire.WriteJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is shutting down"})
		return
	}
	defer s.gate.End()
	var req ExecRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<24))
	if err := dec.Decode(&req); err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON body: " + err.Error()})
		return
	}
	if req.SQL == "" {
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: `missing "sql"`})
		return
	}
	d, name, ok := s.lookup(req.DB)
	if !ok {
		wire.WriteJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown database %q", name)})
		return
	}
	if d.mut == nil {
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("database %q is read-only", name)})
		return
	}
	stmt, err := fdb.ParseStatement(req.SQL)
	if err != nil {
		s.execErrors.Add(1)
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	mut, ok := stmt.(*fdb.Mutation)
	if !ok {
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "statement is a query; use /query"})
		return
	}
	start := time.Now()
	n, err := d.mut.Apply(r.Context(), mut)
	if err != nil {
		s.execErrors.Add(1)
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.execs.Add(1)
	s.rowsWritten.Add(n)
	wire.WriteJSON(w, http.StatusOK, ExecResponse{
		RowsAffected:  n,
		Generation:    d.mut.Generation(),
		ElapsedMillis: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// CompactRequest is the POST /compact body.
type CompactRequest struct {
	// DB names the mutable database to compact; empty selects the
	// default.
	DB string `json:"db,omitempty"`
}

// CompactResponse is the POST /compact success body.
type CompactResponse struct {
	WALEpoch      uint64  `json:"walEpoch"`
	ElapsedMillis float64 `json:"elapsedMillis"`
}

// handleCompact folds a mutable database's WAL and overlays into a
// fresh catalogue snapshot. Queries and writes continue throughout; a
// concurrent compaction returns 409 Conflict.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST"})
		return
	}
	if !s.gate.Begin() {
		wire.WriteJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is shutting down"})
		return
	}
	defer s.gate.End()
	var req CompactRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON body: " + err.Error()})
		return
	}
	d, name, ok := s.lookup(req.DB)
	if !ok {
		wire.WriteJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown database %q", name)})
		return
	}
	if d.mut == nil {
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("database %q is read-only", name)})
		return
	}
	start := time.Now()
	if err := d.mut.Compact(r.Context()); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, fdb.ErrCompactionRunning) {
			status = http.StatusConflict
		}
		wire.WriteJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	st := d.mut.Stats()
	wire.WriteJSON(w, http.StatusOK, CompactResponse{
		WALEpoch:      st.WALEpoch,
		ElapsedMillis: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// query runs the statement through Exec and writes its rows to
// the sink r's Accept header selects, one encoded frame per row straight
// off the engine's cursor; it reports whether the query failed. Errors
// before the header are answered with the 400 error body; later ones
// end the response through the sink, and a client that went away ends
// it without another byte.
func (s *Server) query(w http.ResponseWriter, r *http.Request, d *database, sqlText string) bool {
	ctx, snk := r.Context(), wire.NewSink(w, r)
	fail := func(err error) bool {
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return true
	}
	prep, cached, err := s.prepared(d, sqlText)
	if err != nil {
		return fail(err)
	}
	res, err := prep.ExecContext(ctx, d.data())
	if err != nil {
		return fail(err)
	}
	// The cursor is closed before the result on every exit path below
	// (deferred LIFO), which joins any parallel segment workers and only
	// then recycles the pooled store — a client abort mid-stream must
	// never leave workers reading a store that went back to the pool.
	defer res.Close()
	rows, err := res.Rows(ctx)
	if err != nil {
		return fail(err)
	}
	defer rows.Close()
	if err := snk.Header(rows.Columns(), cached); err != nil {
		return true
	}
	var frame []byte
	n, truncated, errMsg := 0, false, ""
	for rows.Next() {
		if s.maxRows > 0 && n >= s.maxRows {
			truncated = true
			break
		}
		if frame, err = wire.AppendTuple(frame[:0], rows.Tuple()); err != nil {
			// A non-finite float has no JSON encoding: the query fails.
			errMsg = err.Error()
			break
		}
		if err := snk.Row(frame); err != nil {
			// The client went away, possibly mid-row: write nothing
			// further, since a trailer after a partial row would corrupt
			// the line protocol for any proxy still reading.
			return true
		}
		n++
	}
	if err := rows.Err(); err != nil && errMsg == "" {
		errMsg = err.Error()
	}
	snk.Done(n, truncated, errMsg)
	return errMsg != ""
}

// prepared returns the cached plan for the statement, compiling and
// caching it on a miss. Concurrent misses on one key may both compile;
// the results are interchangeable and the last Put wins, so no
// per-key locking is needed.
func (s *Server) prepared(d *database, sqlText string) (*fdb.PreparedQuery, bool, error) {
	key := sql.Normalize(sqlText)
	if v, ok := d.plans.Get(key); ok {
		return v.(*fdb.PreparedQuery), true, nil
	}
	q, err := fdb.ParseSQL(sqlText)
	if err != nil {
		return nil, false, err
	}
	p, err := s.eng.Prepare(q, d.data())
	if err != nil {
		return nil, false, err
	}
	d.plans.Put(key, p)
	return p, false, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.dbMu.RLock()
	n := len(s.dbs)
	s.dbMu.RUnlock()
	if s.gate.Draining() {
		wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":    "draining",
			"databases": n,
		})
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"databases": n,
	})
}

// SnapshotRequest is the POST /snapshot body (optional: an empty body
// snapshots every database that has a configured path).
type SnapshotRequest struct {
	// DB restricts the snapshot to one database.
	DB string `json:"db,omitempty"`
}

// SnapshotResponse is the POST /snapshot success body.
type SnapshotResponse struct {
	// Snapshots maps each persisted database to its snapshot path.
	Snapshots     map[string]string `json:"snapshots"`
	ElapsedMillis float64           `json:"elapsedMillis"`
}

// handleSnapshot persists catalogues to their configured paths. Each
// write is atomic (temp file + fsync + rename), and the write counts as
// in-flight work, so a drain triggered mid-snapshot waits for the
// rename rather than killing the process over a half-written temp file.
// Relations are immutable by the server's contract, so the snapshot is
// consistent without pausing queries.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST"})
		return
	}
	if !s.gate.Begin() {
		wire.WriteJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is shutting down"})
		return
	}
	defer s.gate.End()
	var req SnapshotRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON body: " + err.Error()})
		return
	}
	targets := make(map[string]string)
	if req.DB != "" {
		path, ok := s.snapshots[req.DB]
		if !ok {
			wire.WriteJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no snapshot path configured for database %q", req.DB)})
			return
		}
		targets[req.DB] = path
	} else {
		for name, path := range s.snapshots {
			targets[name] = path
		}
	}
	if len(targets) == 0 {
		wire.WriteJSON(w, http.StatusNotFound, errorResponse{Error: "no snapshot paths configured"})
		return
	}
	start := time.Now()
	resp := SnapshotResponse{Snapshots: make(map[string]string, len(targets))}
	for name, path := range targets {
		d, _, ok := s.lookup(name)
		if !ok {
			wire.WriteJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown database %q", name)})
			return
		}
		if err := fdb.SaveCatalogFile(path, name, d.data()); err != nil {
			wire.WriteJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
		resp.Snapshots[name] = path
	}
	resp.ElapsedMillis = float64(time.Since(start)) / float64(time.Millisecond)
	wire.WriteJSON(w, http.StatusOK, resp)
}

// ShardInstallResponse is the POST /shard/install success body.
type ShardInstallResponse struct {
	// DB is the database name the shard now serves under.
	DB string `json:"db"`
	// Relations and Rows describe the installed snapshot.
	Relations int `json:"relations"`
	Rows      int `json:"rows"`
	// Path is where the snapshot was persisted.
	Path          string  `json:"path"`
	ElapsedMillis float64 `json:"elapsedMillis"`
}

// handleShardInstall accepts a catalogue snapshot (the raw .fdbcat
// container) as the request body, persists it atomically under
// Config.ShardDir, mmaps it and hot-swaps it into the served set under
// the name given by the "db" query parameter (default: the catalogue's
// own name). In-flight queries keep reading the superseded snapshot —
// it is retired, not closed, until the server drains — while new
// queries see the new data and a fresh plan cache. This is how a
// coordinator ships shards to workers and how a warm standby is
// populated before failover.
func (s *Server) handleShardInstall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST"})
		return
	}
	if s.shardDir == "" {
		wire.WriteJSON(w, http.StatusNotFound, errorResponse{Error: "shard installs not enabled (no shard directory configured)"})
		return
	}
	if !s.gate.Begin() {
		wire.WriteJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is shutting down"})
		return
	}
	defer s.gate.End()
	start := time.Now()

	// Spool the snapshot to a temp file in the shard directory, fsync,
	// validate by loading, and only then rename over the final name —
	// a torn upload or corrupt payload never clobbers a good shard, and
	// the mmap stays valid across the rename (same inode).
	tmp, err := os.CreateTemp(s.shardDir, "install.tmp*")
	if err != nil {
		wire.WriteJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	tmpName := tmp.Name()
	removeTmp := true
	defer func() {
		if removeTmp {
			os.Remove(tmpName)
		}
	}()
	if _, err := io.Copy(tmp, http.MaxBytesReader(w, r.Body, 1<<31)); err != nil {
		tmp.Close()
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "reading snapshot body: " + err.Error()})
		return
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		wire.WriteJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	if err := tmp.Close(); err != nil {
		wire.WriteJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	cat, err := fdb.LoadCatalogFile(tmpName, true)
	if err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid snapshot: " + err.Error()})
		return
	}
	name := r.URL.Query().Get("db")
	if name == "" {
		name = cat.Name
	}
	if name == "" {
		cat.Close()
		wire.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "snapshot has no name; pass ?db="})
		return
	}
	final := filepath.Join(s.shardDir, name+".fdbcat")
	if err := os.Rename(tmpName, final); err != nil {
		cat.Close()
		wire.WriteJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	removeTmp = false

	rows := 0
	for _, rel := range cat.DB {
		rows += len(rel.Tuples)
	}
	s.dbMu.Lock()
	if old, ok := s.dbs[name]; ok && old.mut != nil {
		s.dbMu.Unlock()
		cat.Close()
		wire.WriteJSON(w, http.StatusConflict, errorResponse{Error: fmt.Sprintf("database %q is mutable; refusing to overwrite it with a shard", name)})
		return
	} else if ok && old.cat != nil {
		s.retired = append(s.retired, old.cat)
	}
	s.dbs[name] = &database{name: name, db: cat.DB, cat: cat, plans: cache.New(s.cacheSize)}
	if s.defaultDB == "" {
		s.defaultDB = name
	}
	s.dbMu.Unlock()
	s.installs.Add(1)
	wire.WriteJSON(w, http.StatusOK, ShardInstallResponse{
		DB:            name,
		Relations:     len(cat.DB),
		Rows:          rows,
		Path:          final,
		ElapsedMillis: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// DBStats describes one database in the /stats response.
type DBStats struct {
	Relations        int         `json:"relations"`
	PlanCache        cache.Stats `json:"planCache"`
	PlanCacheHitRate float64     `json:"planCacheHitRate"`
	// Writable marks a mutable database; Mutable carries its write-path
	// gauges (generation, rows written since the last compaction, WAL
	// bytes, compactions).
	Writable bool              `json:"writable,omitempty"`
	Mutable  *fdb.MutableStats `json:"mutable,omitempty"`
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	Snapshot
	Workers int `json:"workers"`
	// Parallel is the per-query worker accounting: cumulative counts of
	// queries run with an intra-query parallelism budget and of segment
	// workers spawned per engine layer.
	Parallel fdb.ParStats `json:"parallel"`
	// Offsets reports how OFFSET clauses were applied: by ranked direct
	// seek over the subtree-count index, or by the linear skip loop.
	Offsets fdb.OffsetStats `json:"offsets"`
	// Execs / ExecErrors / RowsWritten count POST /exec statements and
	// the rows they affected across all mutable databases.
	Execs       uint64 `json:"execs"`
	ExecErrors  uint64 `json:"execErrors"`
	RowsWritten int64  `json:"rowsWritten"`
	// ShardInstalls counts snapshots accepted through /shard/install.
	ShardInstalls uint64 `json:"shardInstalls,omitempty"`
	// PlanTemplates is the engine's plan-template memo, shared by every
	// database: a statement missing its database's plan cache binds to
	// a template of its query shape (a hit) or is planned afresh.
	PlanTemplates cache.Stats        `json:"planTemplates"`
	Databases     map[string]DBStats `json:"databases"`
}

// Stats returns the server's current metrics (also served at /stats).
func (s *Server) Stats() StatsResponse {
	out := StatsResponse{
		Snapshot:      s.met.snapshot(),
		Workers:       cap(s.sem),
		Parallel:      fdb.ParallelStats(),
		Offsets:       fdb.SeekSkipStats(),
		Execs:         s.execs.Load(),
		ExecErrors:    s.execErrors.Load(),
		RowsWritten:   s.rowsWritten.Load(),
		ShardInstalls: s.installs.Load(),
		PlanTemplates: s.eng.PlanTemplateStats(),
		Databases:     make(map[string]DBStats, len(s.dbs)),
	}
	s.dbMu.RLock()
	served := make([]*database, 0, len(s.dbs))
	for _, d := range s.dbs {
		served = append(served, d)
	}
	s.dbMu.RUnlock()
	for _, d := range served {
		name := d.name
		cs := d.plans.Stats()
		ds := DBStats{
			Relations:        len(d.data()),
			PlanCache:        cs,
			PlanCacheHitRate: cs.HitRate(),
		}
		if d.mut != nil {
			ms := d.mut.Stats()
			ds.Writable = true
			ds.Mutable = &ms
		}
		out.Databases[name] = ds
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, s.Stats())
}
