package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/factordb/fdb/internal/server"
	"github.com/factordb/fdb/internal/wire"
)

// opKind is how an operation travels to the server.
type opKind uint8

const (
	kindStream   opKind = iota // POST /query, NDJSON response
	kindBuffered               // POST /query, buffered JSON response
	kindExec                   // POST /exec (INSERT / UPSERT / DELETE)
	kindCompact                // POST /compact
)

// client is the benchmark's one closed-loop caller: a single kept-alive
// connection on which the next request is written only after the last
// byte of the previous response was read.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	line []byte // scanner buffer, reused across responses
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, line: make([]byte, 64<<10)}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// response is one completed operation as the caller saw it.
type response struct {
	lat  time.Duration // request written → last byte read
	ttfr time.Duration // request written → first row line (NDJSON) / decoded body (buffered)
	got  ref           // rows + hash (reads), rows affected (writes)
	err  error         // transport, status or protocol failure
}

func (c *client) post(url string, body any, ndjson bool) (*http.Response, time.Time, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, time.Time{}, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, time.Time{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ndjson {
		req.Header.Set("Accept", wire.ContentType)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, start, err
	}
	if resp.StatusCode != http.StatusOK {
		detail, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		resp.Body.Close()
		return nil, start, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(detail))
	}
	return resp, start, nil
}

// do performs one operation and reads its response to the end. Reads
// are hashed as they arrive; whether the answer is the right one is the
// caller's check (see collector.record).
func (c *client) do(base string, kind opKind, sqlText string, ordered bool) response {
	switch kind {
	case kindStream:
		return c.stream(base, sqlText, ordered)
	case kindBuffered:
		return c.buffered(base, sqlText, ordered)
	case kindExec:
		return c.exec(base, sqlText)
	default:
		return c.compact(base)
	}
}

func (c *client) stream(base, sqlText string, ordered bool) (r response) {
	resp, start, err := c.post(base+"/query", wire.QueryRequest{SQL: sqlText}, true)
	if err != nil {
		return response{lat: time.Since(start), err: err}
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(c.line, 16<<20)
	h := rowHash{ordered: ordered}
	var header bool
	var trailer *wire.Trailer
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
		case line[0] == '[':
			if h.rows == 0 {
				r.ttfr = time.Since(start)
			}
			h.add(line)
		case !header:
			header = true
		default:
			t, err := wire.DecodeTrailer(line)
			if err != nil {
				r.err = err
			}
			trailer = &t
		}
	}
	r.lat = time.Since(start)
	if h.rows == 0 {
		r.ttfr = r.lat
	}
	r.got = h.ref()
	switch {
	case r.err != nil:
	case sc.Err() != nil:
		r.err = sc.Err()
	case trailer == nil:
		r.err = fmt.Errorf("stream ended without a trailer")
	case trailer.Error != "":
		r.err = fmt.Errorf("trailer error: %s", trailer.Error)
	case trailer.Truncated:
		r.err = fmt.Errorf("response truncated")
	case trailer.RowCount != h.rows:
		r.err = fmt.Errorf("trailer says %d rows, stream carried %d", trailer.RowCount, h.rows)
	}
	return r
}

func (c *client) buffered(base, sqlText string, ordered bool) (r response) {
	resp, start, err := c.post(base+"/query", wire.QueryRequest{SQL: sqlText}, false)
	if err != nil {
		return response{lat: time.Since(start), err: err}
	}
	defer resp.Body.Close()
	var body struct {
		Rows      []json.RawMessage `json:"rows"`
		RowCount  int               `json:"rowCount"`
		Truncated bool              `json:"truncated"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	r.ttfr = time.Since(start)
	h := rowHash{ordered: ordered}
	for _, row := range body.Rows {
		h.add(row)
	}
	r.lat = time.Since(start)
	r.got = h.ref()
	switch {
	case err != nil:
		r.err = err
	case body.Truncated:
		r.err = fmt.Errorf("response truncated")
	case body.RowCount != h.rows:
		r.err = fmt.Errorf("rowCount says %d rows, body carried %d", body.RowCount, h.rows)
	}
	return r
}

func (c *client) exec(base, sqlText string) (r response) {
	resp, start, err := c.post(base+"/exec", server.ExecRequest{SQL: sqlText}, false)
	if err != nil {
		return response{lat: time.Since(start), err: err}
	}
	defer resp.Body.Close()
	var body server.ExecResponse
	r.err = json.NewDecoder(resp.Body).Decode(&body)
	r.lat = time.Since(start)
	r.ttfr = r.lat
	r.got = ref{rows: int(body.RowsAffected)}
	return r
}

func (c *client) compact(base string) (r response) {
	resp, start, err := c.post(base+"/compact", server.CompactRequest{}, false)
	if err != nil {
		return response{lat: time.Since(start), err: err}
	}
	defer resp.Body.Close()
	_, r.err = io.Copy(io.Discard, resp.Body)
	r.lat = time.Since(start)
	r.ttfr = r.lat
	return r
}

// listener serves h on a fresh loopback TCP port until its stop
// function is called; stop returns once the serving goroutine has
// exited.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // always returns ErrServerClosed after Close
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = hs.Close() // the benchmark's own connections are idle by now
		<-done
	}, nil
}
