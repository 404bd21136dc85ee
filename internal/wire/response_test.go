package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/factordb/fdb/internal/values"
)

// flushWriter is an http.ResponseWriter and http.Flusher that keeps the
// body and the number of bytes each Flush carried.
type flushWriter struct {
	hdr     http.Header
	body    bytes.Buffer
	pending int
	flushes []int
}

func (f *flushWriter) Header() http.Header {
	if f.hdr == nil {
		f.hdr = http.Header{}
	}
	return f.hdr
}

func (f *flushWriter) WriteHeader(int) {}

func (f *flushWriter) Write(p []byte) (int, error) {
	f.pending += len(p)
	return f.body.Write(p)
}

func (f *flushWriter) Flush() {
	f.flushes = append(f.flushes, f.pending)
	f.pending = 0
}

// ndjsonRequest is a POST /query that asks for the NDJSON transport.
func ndjsonRequest() *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/query", nil)
	r.Header.Set("Accept", ContentType)
	return r
}

// narrowFrame is the row frame [i,"x"].
func narrowFrame(i int) []byte {
	return []byte(fmt.Sprintf("[%d,\"x\"]\n", i))
}

// TestNDJSONFlushPolicy pins where the NDJSON sink's flushes fall: the
// header alone, rows in batches bounded by flushMax, rows that trickle
// in flushed by the deadline, and the same bytes as the frames one by
// one.
func TestNDJSONFlushPolicy(t *testing.T) {
	header, _ := json.Marshal(Header{Columns: []string{"k", "s"}})
	header = append(header, '\n')

	// run writes frames (pausing before frame i when pause(i)) and
	// checks the body is the header, the frames and a trailer counting
	// them. It returns the writer and the number of flushes before Done.
	run := func(t *testing.T, frames [][]byte, pause func(i int) bool) (*flushWriter, int) {
		t.Helper()
		w := &flushWriter{}
		snk := NewSink(w, ndjsonRequest())
		if err := snk.Header([]string{"k", "s"}, false); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), header...)
		for i, f := range frames {
			if pause != nil && pause(i) {
				time.Sleep(3 * time.Millisecond)
			}
			if err := snk.Row(f); err != nil {
				t.Fatal(err)
			}
			want = append(want, f...)
		}
		beforeDone := len(w.flushes)
		snk.Done(len(frames), false, "")
		got := w.body.Bytes()
		if !bytes.HasPrefix(got, want) {
			t.Fatal("body differs from the header and row frames written one by one")
		}
		tr, err := DecodeTrailer(got[len(want):])
		if err != nil || tr.RowCount != len(frames) || bytes.Count(got[len(want):], []byte("\n")) != 1 {
			t.Fatalf("trailer %q: %+v, %v", got[len(want):], tr, err)
		}
		if w.pending != 0 {
			t.Fatalf("%d bytes written after the last flush", w.pending)
		}
		return w, beforeDone
	}

	t.Run("ten rows", func(t *testing.T) {
		frames := make([][]byte, 10)
		for i := range frames {
			frames[i] = narrowFrame(i)
		}
		w, _ := run(t, frames, nil)
		if len(w.flushes) != 2 || w.flushes[0] != len(header) {
			t.Fatalf("flushes carried %v bytes, want the header (%d) then the rest", w.flushes, len(header))
		}
	})

	t.Run("300 KiB", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		var frames [][]byte
		total, widest := 0, 0
		for i := 0; total < 300<<10; i++ {
			f := []byte(fmt.Sprintf("[%d,%q]\n", i, strings.Repeat("y", rng.Intn(300))))
			frames = append(frames, f)
			total += len(f)
			widest = max(widest, len(f))
		}
		w, _ := run(t, frames, nil)
		if limit := (300+31)/32 + 7; len(w.flushes) > limit {
			t.Fatalf("%d flushes for 300 KiB, want at most %d", len(w.flushes), limit)
		}
		if n := w.flushes[1]; n < 1<<10 || n > 1<<10+widest {
			t.Fatalf("the first rows' flush carried %d bytes, want 1 KiB plus at most a frame", n)
		}
		for i, n := range w.flushes {
			if n > 32<<10+widest {
				t.Fatalf("flush %d carried %d bytes, want at most %d", i, n, 32<<10+widest)
			}
		}
	})

	t.Run("deadline", func(t *testing.T) {
		frames := make([][]byte, 64)
		for i := range frames {
			frames[i] = narrowFrame(i)
		}
		_, beforeDone := run(t, frames, func(i int) bool { return i > 0 && i%16 == 0 })
		if beforeDone < 2 {
			t.Fatalf("rows arriving in batches 3 ms apart waited for Done (%d flushes before it)", beforeDone)
		}
	})
}

// discardWriter is an http.ResponseWriter and http.Flusher that drops
// what it is given, allocating nothing once its header map exists.
type discardWriter struct{ hdr http.Header }

func (d *discardWriter) Header() http.Header         { return d.hdr }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) Flush()                      {}

// TestNDJSONSinkAllocs pins the sink's memory: a row, flushes included,
// allocates nothing, and a 10k-row response allocates a handful of
// objects and, with its buffer back from the pool, a few hundred bytes.
func TestNDJSONSinkAllocs(t *testing.T) {
	w, r := &discardWriter{hdr: http.Header{}}, ndjsonRequest()
	frame := []byte("[5123,1432,87]\n")
	respond := func() {
		snk := NewSink(w, r)
		_ = snk.Header([]string{"date", "customer", "package"}, false)
		for i := 0; i < 10_000; i++ {
			_ = snk.Row(frame)
		}
		snk.Done(10_000, false, "")
	}
	respond()

	snk := NewSink(w, r)
	_ = snk.Header([]string{"date"}, false)
	if n := testing.AllocsPerRun(10_000, func() { _ = snk.Row(frame) }); n != 0 {
		t.Fatalf("Row allocates %.2f objects, want 0", n)
	}
	snk.Done(0, false, "")

	if n := testing.AllocsPerRun(20, respond); n > 10 {
		t.Fatalf("a 10k-row response allocates %.1f objects, want at most 10", n)
	}
	if raceEnabled {
		return // the race detector's sync.Pool drops buffers on purpose
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		respond()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1<<10 {
		t.Fatalf("a 10k-row response allocates %d bytes, want under 1 KiB: the row buffer is not reused", per)
	}
}

// queryResponse is the buffered body of docs/PROTOCOL.md §4.1 as
// encoding/json writes it; the buffered sink writes the same bytes.
type queryResponse struct {
	Columns       []string        `json:"columns"`
	Rows          json.RawMessage `json:"rows"`
	RowCount      int             `json:"rowCount"`
	Truncated     bool            `json:"truncated,omitempty"`
	Cached        bool            `json:"cached"`
	ElapsedMillis float64         `json:"elapsedMillis"`
}

// TestBufferedEnvelope pins the buffered body byte for byte against
// encoding/json: random column names and string values (with <>&,
// U+2028, quotes, control bytes and non-ASCII), empty and non-empty
// rows, truncated and cached both ways, and elapsed values on both
// sides of encoding/json's exponent bounds.
func TestBufferedEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "Z", "_", "<", ">", "&", "\u2028", "\u2029", "é", "漢", `"`, `\`, "\n", "\x01", " "}
	word := func() string {
		var b strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	elapsed := []float64{0, 1e-7, 1e21, 0.4213, 3, 12.5, 1234.0625}
	for i := 0; i < 200; i++ {
		cols := make([]string, 1+rng.Intn(4))
		for j := range cols {
			cols[j] = word()
		}
		nRows := rng.Intn(4) // 0: an empty result
		truncated, cached, ms := i%2 == 0, i%3 == 0, elapsed[i%len(elapsed)]

		snk := &bufferedSink{}
		_ = snk.Header(cols, cached)
		rows := []byte{'['}
		for r := 0; r < nRows; r++ {
			tuple := make([]values.Value, len(cols))
			for j := range tuple {
				tuple[j] = values.NewString(word())
				if rng.Intn(2) == 0 {
					tuple[j] = values.NewInt(rng.Int63n(2000) - 1000)
				}
			}
			frame, err := AppendTuple(nil, tuple)
			if err != nil {
				t.Fatal(err)
			}
			_ = snk.Row(frame)
			if r > 0 {
				rows = append(rows, ',')
			}
			rows = append(rows, frame[:len(frame)-1]...)
		}
		snk.end(nRows, truncated, ms)

		var want bytes.Buffer
		_ = json.NewEncoder(&want).Encode(queryResponse{
			Columns: cols, Rows: append(rows, ']'), RowCount: nRows,
			Truncated: truncated, Cached: cached, ElapsedMillis: ms,
		})
		if !bytes.Equal(snk.body, want.Bytes()) {
			t.Fatalf("case %d:\n got %s\nwant %s", i, snk.body, want.Bytes())
		}
	}

	// Done writes that body under 200 and the JSON content type.
	rec := httptest.NewRecorder()
	snk := NewSink(rec, httptest.NewRequest(http.MethodPost, "/query", nil))
	_ = snk.Header([]string{"k"}, true)
	_ = snk.Row([]byte("[1]\n"))
	snk.Done(1, false, "")
	var got queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK ||
		rec.Header().Get("Content-Type") != "application/json" || string(got.Rows) != "[[1]]" || !got.Cached {
		t.Fatalf("buffered response %d %q: %s (%v)", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes(), err)
	}
}

// BenchmarkNDJSONSink streams responses of rows the width of R3's
// (date, customer, package) through the sink over a loopback HTTP
// server to a bufio.Scanner client, reporting ns/row end to end.
func BenchmarkNDJSONSink(b *testing.B) {
	const nRows = 20_000
	frames := make([][]byte, nRows)
	for i := range frames {
		frames[i], _ = AppendTuple(nil, []values.Value{
			values.NewInt(int64(i / 32)), values.NewInt(int64(i % 1600)), values.NewInt(int64(i % 300)),
		})
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snk := NewSink(w, r)
		if snk.Header([]string{"date", "customer", "package"}, false) != nil {
			return
		}
		for _, f := range frames {
			if snk.Row(f) != nil {
				return
			}
		}
		snk.Done(nRows, false, "")
	}))
	defer ts.Close()
	client := ts.Client()
	query := func() error {
		req, err := http.NewRequest(http.MethodPost, ts.URL, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", ContentType)
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		sc, lines := bufio.NewScanner(resp.Body), 0
		for sc.Scan() {
			lines++
		}
		if lines != nRows+2 {
			return fmt.Errorf("read %d lines, want %d (%v)", lines, nRows+2, sc.Err())
		}
		return nil
	}
	if err := query(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := query(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nRows), "ns/row")
}
