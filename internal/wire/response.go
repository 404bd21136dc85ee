package wire

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Sink writes one POST /query response, in the transport the request
// asked for: the NDJSON frame stream or the buffered JSON body. The
// serial server and the coordinator both emit through it, so their
// responses share every byte of framing.
type Sink interface {
	// Header commits the response header; rows may follow. An error
	// means the client is gone: stop without writing anything further.
	Header(cols []string, cached bool) error
	// Row delivers one encoded row frame, "[c1,…]\n" as AppendRow and
	// AppendTuple produce it. The sink does not retain frame.
	Row(frame []byte) error
	// Done ends the response. errMsg is non-empty when the query failed
	// after the header was committed.
	Done(rowCount int, truncated bool, errMsg string)
}

// NewSink returns the sink for r's transport: NDJSON when its Accept
// header names ContentType, buffered JSON otherwise. Elapsed time in
// the trailer or body counts from this call.
func NewSink(w http.ResponseWriter, r *http.Request) Sink {
	if strings.Contains(r.Header.Get("Accept"), ContentType) {
		return &ndjsonSink{w: w, start: time.Now()}
	}
	return &bufferedSink{w: w, start: time.Now()}
}

// WriteJSON writes v as a JSON response body under the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// The NDJSON sink's flush policy: row frames collect in one buffer,
// handed to the client in one Write and one Flush once it holds
// flushFirst bytes — a threshold that doubles after each flush, up to
// flushMax — or once flushAfter has passed since the last flush, a
// clock read every clockEvery rows. flushFirst is about 64 narrow
// rows, so the first rows arrive no later than under a flush every 64
// rows; flushMax amortises the write and the client's wake-up.
const (
	flushFirst = 1 << 10
	flushMax   = 32 << 10
	flushAfter = 2 * time.Millisecond
	clockEvery = 16
)

// rowBufs pools the NDJSON sinks' buffers, flushMax plus room for the
// frame that crosses the threshold. A buffer a long frame grew beyond
// that is left to the collector, so an idle buffer holds 2·flushMax at
// most.
var rowBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2*flushMax)
	return &b
}}

func elapsedMillis(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// ndjsonSink streams the response: the header flushed on its own, then
// the row frames in batches under the flush policy above, then the
// trailer in the last batch.
type ndjsonSink struct {
	w       http.ResponseWriter
	flusher http.Flusher
	start   time.Time
	pooled  *[]byte // buf's pool slot; nil once returned
	buf     []byte
	limit   int       // flush threshold in bytes
	last    time.Time // when the last flush ended
	n       int       // rows since the header
}

// flush hands the buffered bytes to the client. A failed write means
// the client is gone: the buffer goes back to the pool, and the caller
// writes nothing further.
func (s *ndjsonSink) flush() error {
	if _, err := s.w.Write(s.buf); err != nil {
		s.release()
		return err
	}
	s.buf = s.buf[:0]
	if s.flusher != nil {
		s.flusher.Flush()
	}
	s.last = time.Now()
	return nil
}

func (s *ndjsonSink) release() {
	if s.pooled != nil && cap(s.buf) <= 2*flushMax {
		*s.pooled = s.buf[:0]
		rowBufs.Put(s.pooled)
	}
	s.pooled, s.buf = nil, nil
}

// appendJSON appends v's encoding/json form and a newline to the buffer.
func (s *ndjsonSink) appendJSON(v any) {
	b, _ := json.Marshal(v) // Header and Trailer always encode
	s.buf = append(append(s.buf, b...), '\n')
}

func (s *ndjsonSink) Header(cols []string, cached bool) error {
	s.w.Header().Set("Content-Type", ContentType)
	s.w.WriteHeader(http.StatusOK)
	s.flusher, _ = s.w.(http.Flusher)
	s.pooled = rowBufs.Get().(*[]byte)
	s.buf, s.limit = *s.pooled, flushFirst
	s.appendJSON(Header{Columns: cols, Cached: cached})
	return s.flush()
}

func (s *ndjsonSink) Row(frame []byte) error {
	s.buf = append(s.buf, frame...)
	s.n++
	if len(s.buf) >= s.limit || s.n%clockEvery == 0 && time.Since(s.last) >= flushAfter {
		s.limit = min(2*s.limit, flushMax)
		return s.flush()
	}
	return nil
}

func (s *ndjsonSink) Done(rowCount int, truncated bool, errMsg string) {
	s.appendJSON(Trailer{
		RowCount:      rowCount,
		Truncated:     truncated,
		ElapsedMillis: elapsedMillis(s.start),
		Error:         errMsg,
	})
	_ = s.flush() // a gone client has nothing left to be told
	s.release()
}

// bufferedSink collects the whole body of §4.1 — the envelope written
// directly around the row frames, in encoding/json's field order and
// bytes — and writes it in Done, so a failure after the header still
// answers with the error status of §4.4.
type bufferedSink struct {
	w      http.ResponseWriter
	start  time.Time
	body   []byte
	open   int // len(body) just after the rows' '['
	cached bool
}

func (s *bufferedSink) Header(cols []string, cached bool) error {
	b, _ := json.Marshal(cols) // a []string always encodes
	s.body = append(append(append(s.body[:0], `{"columns":`...), b...), `,"rows":[`...)
	s.open, s.cached = len(s.body), cached
	return nil
}

func (s *bufferedSink) Row(frame []byte) error {
	if len(s.body) > s.open {
		s.body = append(s.body, ',')
	}
	s.body = append(s.body, frame[:len(frame)-1]...) // drop the '\n'
	return nil
}

func (s *bufferedSink) Done(rowCount int, truncated bool, errMsg string) {
	if errMsg != "" {
		WriteJSON(s.w, http.StatusBadRequest, ErrorBody{Error: errMsg})
		return
	}
	s.end(rowCount, truncated, elapsedMillis(s.start))
	s.w.Header().Set("Content-Type", "application/json")
	s.w.WriteHeader(http.StatusOK)
	_, _ = s.w.Write(s.body) // a gone client has nothing left to be told
}

// end closes the rows' array and appends the rest of the envelope.
func (s *bufferedSink) end(rowCount int, truncated bool, elapsed float64) {
	s.body = strconv.AppendInt(append(s.body, `],"rowCount":`...), int64(rowCount), 10)
	if truncated {
		s.body = append(s.body, `,"truncated":true`...)
	}
	s.body = strconv.AppendBool(append(s.body, `,"cached":`...), s.cached)
	s.body, _ = appendFloat(append(s.body, `,"elapsedMillis":`...), elapsed) // elapsed is finite
	s.body = append(s.body, '}', '\n')
}
