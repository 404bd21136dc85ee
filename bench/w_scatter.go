package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/cluster"
	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/server"
)

// scatterShards is the number of single-replica shard workers.
const scatterShards = 2

// generateViews makes the paper's flat materialised views R2 (the join,
// sorted) and R3 (Orders, sorted).
func generateViews(r *run) error {
	d := dataset(r)
	r2, err := d.FlatR2()
	if err != nil {
		return err
	}
	r3, err := d.R3()
	if err != nil {
		return err
	}
	r.flat = rdb.DB{"R2": r2, "R3": r3}
	return nil
}

// scatterEnv is scatter's serving stack beyond the coordinator.
type scatterEnv struct {
	co         *cluster.Coordinator
	localURL   string   // the unsharded server, behind its own listener
	workerURLs []string // one worker per shard
	shipMs     float64
}

// setupCluster builds the catalogue, starts the shard workers, ships
// the shards to them and puts a default coordinator in front, with an
// unsharded server as its local fallback.
func setupCluster(r *run, dir string) (*env, error) {
	e := &env{db: func() engine.DB { return engine.DB(r.flat) }}
	fail := func(err error) (*env, error) {
		e.close()
		return nil, err
	}
	cat, err := catalog.Build("bench", r.flat)
	if err != nil {
		return fail(err)
	}
	groups := make([][]string, scatterShards)
	se := &scatterEnv{}
	for i := range groups {
		shardDir := filepath.Join(dir, fmt.Sprintf("worker%d", i))
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			return fail(err)
		}
		w, err := server.New(server.Config{ShardDir: shardDir})
		if err != nil {
			return fail(err)
		}
		url, stop, err := listen(w)
		if err != nil {
			return fail(err)
		}
		e.stop = append(e.stop, func() {
			stop()
			_ = w.Drain(context.Background()) // releases the installed shard's mapping
		})
		e.servers = append(e.servers, w)
		groups[i] = []string{url}
		se.workerURLs = append(se.workerURLs, url)
	}
	start := time.Now()
	man, err := cluster.Ship(context.Background(), nil, groups, cat)
	if err != nil {
		return fail(err)
	}
	se.shipMs = msSince(start)
	local, err := server.New(server.Config{Databases: map[string]fdb.Database{"bench": engine.DB(r.flat)}})
	if err != nil {
		return fail(err)
	}
	url, stop, err := listen(local)
	if err != nil {
		return fail(err)
	}
	se.localURL = url
	e.stop = append(e.stop, stop)
	if se.co, err = cluster.New(cluster.Config{Groups: groups, Manifest: man, Local: local}); err != nil {
		return fail(err)
	}
	if e.url, stop, err = listen(se.co); err != nil {
		return fail(err)
	}
	e.stop = append(e.stop, stop)
	e.extra = se
	return e, nil
}

// scatterStatements are the five statements of `fdbbench -exp scatter`
// — one per scatter-gather execution mode — plus a full ordered scan of
// R3. ORDER BYs carry tie-breaks that make them total, so pages are
// checkable against the flat baseline.
func scatterStatements(*run) ([]*stmt, error) {
	return []*stmt{
		read("group_sum", `SELECT customer, SUM(price) AS total FROM R2 GROUP BY customer ORDER BY customer`, true),
		read("group_avg", `SELECT package, AVG(price) AS ap, COUNT(*) AS n FROM R2 GROUP BY package ORDER BY package`, true),
		read("topk_revenue", `SELECT customer, SUM(price) AS revenue FROM R2 GROUP BY customer ORDER BY revenue DESC, customer LIMIT 10`, true),
		read("count_star", `SELECT COUNT(*) AS n FROM R2`, true),
		read("scan_page", `SELECT package, date, item, customer, price FROM R2 ORDER BY package, date, item, customer LIMIT 50 OFFSET 100`, true),
		read("scan_full", `SELECT date, customer, package FROM R3 ORDER BY date, customer, package`, true),
	}, nil
}

// scatterTraceExtra sends every statement, beside the coordinator
// requests of the measured loop, straight to the unsharded server and
// straight to each worker, and reads the coordinator's own counters. A
// distributed answer waits for its slowest shard, so the worker figure
// of a statement is the largest of the workers' medians.
func scatterTraceExtra(r *run, t *tracer) error {
	se := r.env.extra.(*scatterEnv)
	local, worker := map[string][]float64{}, map[string][]float64{}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for round := 0; round < r.w.traceRounds; round++ {
		for _, st := range r.stmts {
			resp := r.client.do(se.localURL, st.kind, st.sql, st.ordered)
			if r.col.check(st.name+"@local", st.kind, st.want, resp) {
				local[st.name] = append(local[st.name], ms(resp.lat))
			}
			// A worker holds one shard: its answer is partial, so only the
			// transport outcome is checked.
			for _, url := range se.workerURLs {
				resp = r.client.do(url, st.kind, st.sql, st.ordered)
				if r.col.check(st.name+"@worker", st.kind, resp.got, resp) {
					worker[st.name+url] = append(worker[st.name+url], ms(resp.lat))
				}
			}
		}
	}
	var ratios, workerMeds []float64
	for _, st := range r.stmts {
		ratios = append(ratios, ratio(median(r.col.lat[st.class]), median(local[st.name])))
		slowest := 0.0
		for _, url := range se.workerURLs {
			slowest = max(slowest, median(worker[st.name+url]))
		}
		workerMeds = append(workerMeds, slowest)
	}
	r.put("cluster.vs_single_ratio", "ratio", geomean(ratios))
	r.put("cluster.worker_p50_ms", "ms", geomean(workerMeds))

	cs := se.co.Stats()
	var retries, hedges, failovers uint64
	for _, sh := range cs.Shards {
		retries += sh.Retries
		hedges += sh.Hedges
		failovers += sh.Failovers
	}
	r.put("cluster.distributed_share", "ratio", ratio(float64(cs.Distributed), float64(cs.Queries)))
	r.put("cluster.retries", "count", float64(retries))
	r.put("cluster.hedges", "count", float64(hedges))
	r.put("cluster.failovers", "count", float64(failovers))
	r.put("cluster.ship_ms", "ms", se.shipMs)

	cat, err := catalog.Build("probe", r.flat)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, _, err := catalog.Split(cat, scatterShards); err != nil {
		return err
	}
	r.put("catalog.split_ms", "ms", msSince(start))
	return nil
}
