// Package cluster implements the scatter-gather coordinator for
// distributed serving: it partitions a catalogue into per-shard
// snapshots by root-union range (catalog.Split), ships them to shard
// workers over POST /shard/install (Ship), fans each query out over the
// NDJSON wire protocol of docs/PROTOCOL.md, and stitches the shard
// streams back together so the distributed response is byte-identical
// to the serial server's. All shard streams of a query open at once;
// their rows travel as lines, forwarded verbatim, and only the columns
// the merge compares or folds are parsed, by a scanner for the grammar
// wire.AppendValue emits (scan.go).
//
// The coordinator is itself an http.Handler speaking the same protocol
// as internal/server: POST /query (streaming NDJSON or buffered JSON),
// /healthz, /stats. Queries the distribution planner cannot prove
// shard-safe — joins, projections dropping the partition attribute,
// requests for other databases — replay against a local full-catalogue
// fallback handler, so the coordinator never answers a query wrongly:
// it either distributes with a proof of order preservation or degrades
// to serial execution.
//
// Robustness: every shard query retries across the shard's replicas
// with exponential backoff, a hedge request races a second replica when
// the first is slow to produce its header, replicas that recently
// failed are routed around until a cooldown passes, and a stream torn
// mid-row fails over to another replica, resuming at the exact next
// undelivered row via an OFFSET rewrite (O(log n) through the ranked
// seek path, because replicas serve identical snapshots).
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/server/cache"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/wire"
)

// Config configures a Coordinator.
type Config struct {
	// Groups lists, per shard, the base URLs of the replicas serving
	// that shard (e.g. "http://10.0.0.7:8080"). len(Groups) must equal
	// Manifest.Shards and every group needs at least one replica.
	Groups [][]string
	// Manifest describes how the catalogue was partitioned; Ship
	// returns it, and it round-trips through its JSON file form.
	Manifest *catalog.ShardManifest
	// Local serves queries the planner keeps local: joins, other
	// databases, non-distributable shapes. Typically an internal/server
	// Server over the full catalogue. Required.
	Local http.Handler
	// Client issues shard requests; nil uses a default client with no
	// overall timeout (streams are cancelled via request contexts).
	Client *http.Client
	// MaxRows caps rows per distributed response (marked truncated),
	// mirroring the server option; 0 means unlimited.
	MaxRows int
	// CacheSize bounds the distribution-strategy cache; defaults to 256.
	CacheSize int
}

// Shard-query robustness: after a failed pass over a shard's replicas
// the coordinator makes retryPasses more, sleeping retryBackoff before
// the first and doubling it each pass, and the first open of each query
// races a second replica once the first has been silent for hedgeDelay.
// A Coordinator's retries, backoff and hedgeDelay fields start at these
// (a hedgeDelay of 0 disables hedging).
const (
	retryPasses  = 2
	retryBackoff = 25 * time.Millisecond
	hedgeDelay   = 150 * time.Millisecond
)

// ShardStat is one shard's fan-out accounting in the /stats response.
type ShardStat struct {
	Replicas  []string `json:"replicas"`
	Queries   uint64   `json:"queries"`
	Rows      uint64   `json:"rows"`
	Retries   uint64   `json:"retries"`
	Hedges    uint64   `json:"hedges"`
	Failovers uint64   `json:"failovers"`
}

// StatsResponse is the coordinator's GET /stats body.
type StatsResponse struct {
	Catalog        string      `json:"catalog"`
	Shards         []ShardStat `json:"shards"`
	Queries        uint64      `json:"queries"`
	Distributed    uint64      `json:"distributed"`
	LocalFallbacks uint64      `json:"localFallbacks"`
	StrategyCache  cache.Stats `json:"strategyCache"`
	Draining       bool        `json:"draining,omitempty"`
}

// shardStats is the per-shard atomic counter block behind ShardStat.
type shardStats struct {
	Queries, Rows, Retries, Hedges, Failovers atomic.Uint64
}

// replicaCooldown is how long a replica stays deprioritised after a
// transport failure before it is tried eagerly again.
const replicaCooldown = 3 * time.Second

// Coordinator fans queries out over shard workers and stitches the
// results. Create with New; it implements http.Handler.
type Coordinator struct {
	man        *catalog.ShardManifest
	groups     [][]string
	local      http.Handler
	client     *http.Client
	maxRows    int
	retries    int
	backoff    time.Duration
	hedgeDelay time.Duration
	strategies *cache.LRU
	stats      []shardStats
	mux        *http.ServeMux

	// lastFail maps replica base URL -> time.Time of its most recent
	// transport failure; candidates sorts recently-failed replicas last.
	lastFail sync.Map

	queries        atomic.Uint64
	distributed    atomic.Uint64
	localFallbacks atomic.Uint64

	// gate admits fan-outs until StartDrain/Drain, and Drain waits them
	// out.
	gate wire.Gate
}

// New builds a Coordinator from the configuration.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Manifest == nil {
		return nil, errors.New("cluster: no shard manifest")
	}
	if len(cfg.Groups) != cfg.Manifest.Shards {
		return nil, fmt.Errorf("cluster: %d replica groups for %d shards", len(cfg.Groups), cfg.Manifest.Shards)
	}
	for i, g := range cfg.Groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", i)
		}
	}
	if cfg.Local == nil {
		return nil, errors.New("cluster: no local fallback handler")
	}
	co := &Coordinator{
		man:        cfg.Manifest,
		groups:     cfg.Groups,
		local:      cfg.Local,
		client:     cfg.Client,
		maxRows:    cfg.MaxRows,
		retries:    retryPasses,
		backoff:    retryBackoff,
		hedgeDelay: hedgeDelay,
		stats:      make([]shardStats, len(cfg.Groups)),
	}
	if co.client == nil {
		co.client = &http.Client{}
	}
	size := cfg.CacheSize
	if size == 0 {
		size = 256
	}
	co.strategies = cache.New(size)
	co.mux = http.NewServeMux()
	co.mux.HandleFunc("/query", co.handleQuery)
	co.mux.HandleFunc("/healthz", co.handleHealthz)
	co.mux.HandleFunc("/stats", co.handleStats)
	// Everything else — /exec, /compact, /snapshot — passes through to
	// the local handler, which owns the full catalogue.
	co.mux.Handle("/", cfg.Local)
	return co, nil
}

// ServeHTTP implements http.Handler.
func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	co.mux.ServeHTTP(w, r)
}

func (co *Coordinator) shardStat(i int) *shardStats { return &co.stats[i] }

// noteFailure records a transport failure against a replica so routing
// deprioritises it until the cooldown passes.
func (co *Coordinator) noteFailure(base string) {
	co.lastFail.Store(base, time.Now())
}

// candidates returns a shard's replicas, healthy ones first (preserving
// configured order within each class), so retries and failovers land on
// replicas not known to be struggling.
func (co *Coordinator) candidates(shard int) []string {
	grp := co.groups[shard]
	out := make([]string, 0, len(grp))
	var cooling []string
	for _, base := range grp {
		if t, ok := co.lastFail.Load(base); ok && time.Since(t.(time.Time)) < replicaCooldown {
			cooling = append(cooling, base)
			continue
		}
		out = append(out, base)
	}
	return append(out, cooling...)
}

// StartDrain refuses new queries with 503 and turns /healthz unhealthy,
// without waiting for in-flight fan-outs.
func (co *Coordinator) StartDrain() { co.gate.StartDrain() }

// Drain is StartDrain plus the wait: it blocks until every in-flight
// fan-out — shard streams included — has completed or ctx expires.
// Workers are drained separately (they own their snapshots); the
// coordinator holds no state that outlives its requests.
func (co *Coordinator) Drain(ctx context.Context) error {
	if err := co.gate.Drain(ctx); err != nil {
		return fmt.Errorf("cluster: drain: %w", err)
	}
	return nil
}

// Draining reports whether StartDrain or Drain has been called.
func (co *Coordinator) Draining() bool { return co.gate.Draining() }

// Stats returns a snapshot of the fan-out counters.
func (co *Coordinator) Stats() StatsResponse {
	resp := StatsResponse{
		Catalog:        co.man.Catalog,
		Queries:        co.queries.Load(),
		Distributed:    co.distributed.Load(),
		LocalFallbacks: co.localFallbacks.Load(),
		StrategyCache:  co.strategies.Stats(),
		Draining:       co.gate.Draining(),
	}
	for i := range co.stats {
		s := &co.stats[i]
		resp.Shards = append(resp.Shards, ShardStat{
			Replicas:  append([]string(nil), co.groups[i]...),
			Queries:   s.Queries.Load(),
			Rows:      s.Rows.Load(),
			Retries:   s.Retries.Load(),
			Hedges:    s.Hedges.Load(),
			Failovers: s.Failovers.Load(),
		})
	}
	return resp
}

func (co *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, co.Stats())
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if co.gate.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	wire.WriteJSON(w, code, map[string]any{
		"status": status,
		"role":   "coordinator",
		"shards": len(co.groups),
	})
}

// strategyFor resolves the distribution strategy for a statement
// through the LRU cache; the cached flag feeds the response header,
// exactly like the serial server's plan cache.
func (co *Coordinator) strategyFor(sqlText string) (*strategy, bool, error) {
	key := sql.Normalize(sqlText)
	if v, ok := co.strategies.Get(key); ok {
		return v.(*strategy), true, nil
	}
	q, err := sql.Parse(sqlText)
	if err != nil {
		return nil, false, err
	}
	if err := q.Validate(); err != nil {
		return nil, false, err
	}
	st, err := planStrategy(q, co.man)
	if err != nil {
		return nil, false, err
	}
	co.strategies.Put(key, st)
	return st, false, nil
}

func (co *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteJSON(w, http.StatusMethodNotAllowed, wire.ErrorBody{Error: "use POST"})
		return
	}
	if !co.gate.Begin() {
		wire.WriteJSON(w, http.StatusServiceUnavailable, wire.ErrorBody{Error: "coordinator is shutting down"})
		return
	}
	defer co.gate.End()
	co.queries.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, wire.ErrorBody{Error: "reading body: " + err.Error()})
		return
	}
	var req wire.QueryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, wire.ErrorBody{Error: "invalid JSON body: " + err.Error()})
		return
	}
	if req.SQL == "" {
		wire.WriteJSON(w, http.StatusBadRequest, wire.ErrorBody{Error: `missing "sql"`})
		return
	}

	// replay hands the untouched request to the local full-catalogue
	// server, which also produces the canonical error responses.
	replay := func() {
		co.localFallbacks.Add(1)
		r2 := r.Clone(r.Context())
		r2.Body = io.NopCloser(bytes.NewReader(body))
		r2.ContentLength = int64(len(body))
		co.local.ServeHTTP(w, r2)
	}
	if req.DB != "" && req.DB != co.man.Catalog {
		replay()
		return
	}
	st, cached, err := co.strategyFor(req.SQL)
	if err != nil || st.mode == modeLocal {
		// Parse errors replay too: the local server reports them with
		// its canonical message and status.
		replay()
		return
	}
	co.distributed.Add(1)

	if err := co.gather(r.Context(), st, co.man.Catalog, cached, wire.NewSink(w, r)); err != nil {
		// Failed before the header: the status line is still ours.
		status := http.StatusBadGateway
		var qe *queryError
		if errors.As(err, &qe) {
			status = http.StatusBadRequest
		}
		wire.WriteJSON(w, status, wire.ErrorBody{Error: err.Error()})
	}
}
