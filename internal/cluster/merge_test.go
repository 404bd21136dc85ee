package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/wire"
)

// TestLongRowRelay: a row longer than a shard stream's read buffer
// passes through the coordinator byte-identically, forwarded in stream
// mode and as a group key merged across shards, on both transports.
func TestLongRowRelay(t *testing.T) {
	long := strings.Repeat("x", 70<<10)
	var ts []relation.Tuple
	for k := int64(1); k <= 8; k++ {
		// Three long group keys, each spread over both shards; one
		// carries escapes, so its line is longer than its string.
		s := fmt.Sprintf("%s<%d>\"", long, k%3)
		ts = append(ts, relation.Tuple{values.NewInt(k), values.NewString(s), values.NewInt(k * 10)})
	}
	db := fdb.Database{"L": relation.MustNew("L", []string{"k", "s", "v"}, ts)}
	cat, err := catalog.Build("shop", db)
	if err != nil {
		t.Fatal(err)
	}
	tc := newClusterOver(t, db, cat, 2, 1, 0, nil)
	queries := map[string]string{
		"stream":       `SELECT k, s, v FROM L ORDER BY k`,
		"group-stream": `SELECT s, SUM(v) AS t, COUNT(*) AS n FROM L GROUP BY s ORDER BY s`,
	}
	for name, sqlText := range queries {
		compareNDJSON(t, name, post(t, tc.serial, sqlText, true), post(t, tc.co, sqlText, true))
		compareBuffered(t, name, post(t, tc.serial, sqlText, false), post(t, tc.co, sqlText, false))
	}
	if st := tc.co.Stats(); st.Distributed != 4 || st.LocalFallbacks != 0 {
		t.Fatalf("long-row queries not all distributed: %+v", st)
	}
}

// stubReplica answers /query with a fixed NDJSON stream of one row per
// value in rows, after wait returns true; otherwise with status 503.
func stubReplica(t *testing.T, wait func() bool, rows ...int) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !wait() {
			http.Error(w, "shard requests did not overlap", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", wire.ContentType)
		fmt.Fprintln(w, `{"columns":["a","b","c"],"cached":false}`)
		for _, a := range rows {
			fmt.Fprintf(w, "[%d,1,2]\n", a)
		}
		fmt.Fprintf(w, `{"rowCount":%d,"elapsedMillis":0}`+"\n", len(rows))
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// stubCoordinator puts a coordinator over testManifest's two shards of
// R, one replica each, with no retries and no hedging.
func stubCoordinator(t *testing.T, shard0, shard1 string) *Coordinator {
	t.Helper()
	co, err := New(Config{
		Groups:   [][]string{{shard0}, {shard1}},
		Manifest: testManifest(),
		Local:    http.NotFoundHandler(),
	})
	if err != nil {
		t.Fatal(err)
	}
	co.retries, co.hedgeDelay = 0, 0
	return co
}

// TestShardsOpenConcurrently: each stub shard answers only once both
// shards' requests have arrived, so the query succeeds only when the
// coordinator sends them together. Opening shard after shard makes the
// first stub give up after its timeout.
func TestShardsOpenConcurrently(t *testing.T) {
	var arrived atomic.Int32
	both := make(chan struct{})
	wait := func() bool {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return true
		case <-time.After(2 * time.Second):
			return false
		}
	}
	co := stubCoordinator(t, stubReplica(t, wait, 0, 2), stubReplica(t, wait, 1, 3))
	rec := post(t, co, `SELECT * FROM R`, true)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	lines := splitLines(rec.Body.Bytes())
	want := []string{`{"columns":["a","b","c"],"cached":false}`, "[0,1,2]", "[1,1,2]", "[2,1,2]", "[3,1,2]"}
	if len(lines) != len(want)+1 {
		t.Fatalf("got %d lines, want %d: %s", len(lines), len(want)+1, rec.Body)
	}
	for i, w := range want {
		if string(lines[i]) != w {
			t.Fatalf("line %d: %s, want %s", i, lines[i], w)
		}
	}
}

// TestPrimeErrorPrecedence: a shard failing at open fails the query
// with that shard's error; of two failing shards the lower one's error
// answers, even when the higher one fails first.
func TestPrimeErrorPrecedence(t *testing.T) {
	ok := func() bool { return true }
	failing := func(status int, body string, delay time.Duration) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(delay)
			if status == http.StatusBadRequest {
				wire.WriteJSON(w, status, wire.ErrorBody{Error: body})
				return
			}
			http.Error(w, body, status)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	t.Run("shard 1 alone", func(t *testing.T) {
		bad := failing(http.StatusInternalServerError, "boom", 0)
		rec := post(t, stubCoordinator(t, stubReplica(t, ok, 0), bad), `SELECT * FROM R`, true)
		want := fmt.Sprintf(`{"error":"shard 1: all replicas failed: replica %s: status 500: boom\n"}`+"\n", bad)
		if rec.Code != http.StatusBadGateway || rec.Body.String() != want {
			t.Fatalf("status %d body %q; want 502 %q", rec.Code, rec.Body, want)
		}
	})
	t.Run("both", func(t *testing.T) {
		co := stubCoordinator(t,
			failing(http.StatusBadRequest, "bad zero", 100*time.Millisecond),
			failing(http.StatusInternalServerError, "boom", 0))
		rec := post(t, co, `SELECT * FROM R`, true)
		want := `{"error":"bad zero"}` + "\n"
		if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Fatalf("status %d body %q; want 400 %q", rec.Code, rec.Body, want)
		}
	})
}

// countSink is a wire.Sink that discards rows, counting them.
type countSink struct{ rows int }

func (s *countSink) Header([]string, bool) error { return nil }
func (s *countSink) Row([]byte) error            { s.rows++; return nil }
func (s *countSink) Done(int, bool, string)      {}

// mergeInMemory stitches in-memory shard streams under st into a
// counting sink and returns the rows it received.
func mergeInMemory(t *testing.T, st *strategy, streams [][]byte) int {
	co := &Coordinator{groups: make([][]string, len(streams)), stats: make([]shardStats, len(streams))}
	m := co.newMerger(context.Background(), st, "shop")
	defer m.close()
	for i, data := range streams {
		fr, err := newFrameReader(io.NopCloser(bytes.NewReader(data)), "mem")
		if err != nil {
			t.Fatal(err)
		}
		m.streams[i].fr, m.streams[i].header = fr, fr.header
	}
	if err := m.prime(); err != nil {
		t.Fatal(err)
	}
	snk := &countSink{}
	if err := m.stitch(&emitter{snk: snk}); err != nil {
		t.Fatal(err)
	}
	return snk.rows
}

// shardStreamBytes renders an NDJSON response with one row per key, each
// row the key followed by rest.
func shardStreamBytes(cols string, keys []int, rest string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"columns":%s,"cached":false}`+"\n", cols)
	for _, k := range keys {
		fmt.Fprintf(&b, "[%d%s]\n", k, rest)
	}
	fmt.Fprintf(&b, `{"rowCount":%d,"elapsedMillis":0}`+"\n", len(keys))
	return b.Bytes()
}

// TestMergeStreamBytes pins the bytes relaying a 2-shard query
// allocates: each shard stream reads through a 64 KiB line buffer taken
// from a pool, so a warm merge allocates a few KiB, not two fresh
// buffers per query.
func TestMergeStreamBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers on purpose")
	}
	st := mustPlan(t, `SELECT * FROM R`)
	streams := [][]byte{
		shardStreamBytes(`["a","b","c"]`, []int{0, 2, 4, 6}, ",1,2"),
		shardStreamBytes(`["a","b","c"]`, []int{1, 3, 5, 7}, ",1,2"),
	}
	mergeInMemory(t, st, streams)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		mergeInMemory(t, st, streams)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per 2-shard merge", per)
	const ceiling = 16 << 10
	if per > ceiling {
		t.Fatalf("%d bytes allocated per 2-shard merge, ceiling %d", per, ceiling)
	}
}

// TestMergeStreamAllocs pins the merge's allocations over in-memory
// shard streams of Int rows: a forwarded row allocates nothing, and a
// merged group nothing either. What a run does allocate (92 in stream
// mode, 101 in group-stream mode, on go 1.24) is the fixed cost of
// opening the streams and the merger; the ceiling of 0.05 per row
// leaves room for that, and for no allocation per row.
func TestMergeStreamAllocs(t *testing.T) {
	const n = 4096
	evens, odds, all := make([]int, n), make([]int, n), make([]int, n)
	for i := range evens {
		evens[i], odds[i], all[i] = 2*i, 2*i+1, i
	}
	for _, c := range []struct {
		name    string
		sql     string
		streams [][]byte
		rows    int
		perRow  float64
	}{
		{"stream", `SELECT * FROM R`, [][]byte{
			shardStreamBytes(`["a","b","c"]`, evens, ",1,2"),
			shardStreamBytes(`["a","b","c"]`, odds, ",1,2"),
		}, 2 * n, 0.05},
		{"group-stream", `SELECT a, SUM(b) AS s, COUNT(*) AS n FROM R GROUP BY a ORDER BY a`, [][]byte{
			shardStreamBytes(`["a","__f0","__f1"]`, all, ",1,2"),
			shardStreamBytes(`["a","__f0","__f1"]`, all, ",3,4"),
		}, n, 0.05},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := mustPlan(t, c.sql)
			if got := mergeInMemory(t, st, c.streams); got != c.rows {
				t.Fatalf("%d rows out, want %d", got, c.rows)
			}
			allocs := testing.AllocsPerRun(5, func() { mergeInMemory(t, st, c.streams) })
			t.Logf("%s: %.0f allocations for %d rows", st.mode, allocs, c.rows)
			if per := allocs / float64(c.rows); per > c.perRow {
				t.Fatalf("%s: %.0f allocations for %d rows (%.3f per row), ceiling %.2f", st.mode, allocs, c.rows, per, c.perRow)
			}
		})
	}
}
