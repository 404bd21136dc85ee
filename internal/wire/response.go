package wire

import (
	"encoding/json"
	"net/http"
	"strings"
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

// flushEvery bounds how many rows may sit in HTTP buffers before the
// stream is flushed to the client: small enough that slow consumers
// see steady progress (and the first row promptly), large enough to
// amortise the flush syscall.
const flushEvery = 64

func elapsedMillis(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// ndjsonSink streams the response: the header (flushed at once), each
// row frame as it arrives (flushed every flushEvery rows), the trailer.
type ndjsonSink struct {
	w       http.ResponseWriter
	flusher http.Flusher
	enc     *json.Encoder
	start   time.Time
	n       int
}

func (s *ndjsonSink) flush() {
	if s.flusher != nil {
		s.flusher.Flush()
	}
}

func (s *ndjsonSink) Header(cols []string, cached bool) error {
	s.w.Header().Set("Content-Type", ContentType)
	s.w.WriteHeader(http.StatusOK)
	s.enc = json.NewEncoder(s.w)
	s.flusher, _ = s.w.(http.Flusher)
	if err := s.enc.Encode(Header{Columns: cols, Cached: cached}); err != nil {
		return err
	}
	s.flush()
	return nil
}

func (s *ndjsonSink) Row(frame []byte) error {
	if _, err := s.w.Write(frame); err != nil {
		return err
	}
	s.n++
	if s.n%flushEvery == 0 {
		s.flush()
	}
	return nil
}

func (s *ndjsonSink) Done(rowCount int, truncated bool, errMsg string) {
	_ = s.enc.Encode(Trailer{
		RowCount:      rowCount,
		Truncated:     truncated,
		ElapsedMillis: elapsedMillis(s.start),
		Error:         errMsg,
	})
	s.flush()
}

// bufferedSink collects the rows as one JSON array of row frames and
// writes the whole body in Done, so a failure after the header still
// answers with the error status of §4.4.
type bufferedSink struct {
	w     http.ResponseWriter
	start time.Time
	resp  queryResponse
}

// queryResponse is the buffered body (docs/PROTOCOL.md §4.1). Rows holds
// the row frames already encoded, so encoding/json writes only the
// envelope around them.
type queryResponse struct {
	Columns       []string        `json:"columns"`
	Rows          json.RawMessage `json:"rows"`
	RowCount      int             `json:"rowCount"`
	Truncated     bool            `json:"truncated,omitempty"`
	Cached        bool            `json:"cached"`
	ElapsedMillis float64         `json:"elapsedMillis"`
}

func (s *bufferedSink) Header(cols []string, cached bool) error {
	s.resp.Columns, s.resp.Cached = cols, cached
	s.resp.Rows = append(s.resp.Rows[:0], '[')
	return nil
}

func (s *bufferedSink) Row(frame []byte) error {
	if len(s.resp.Rows) > 1 {
		s.resp.Rows = append(s.resp.Rows, ',')
	}
	s.resp.Rows = append(s.resp.Rows, frame[:len(frame)-1]...) // drop the '\n'
	return nil
}

func (s *bufferedSink) Done(rowCount int, truncated bool, errMsg string) {
	if errMsg != "" {
		WriteJSON(s.w, http.StatusBadRequest, ErrorBody{Error: errMsg})
		return
	}
	s.resp.Rows = append(s.resp.Rows, ']')
	s.resp.RowCount, s.resp.Truncated, s.resp.ElapsedMillis = rowCount, truncated, elapsedMillis(s.start)
	WriteJSON(s.w, http.StatusOK, s.resp)
}
