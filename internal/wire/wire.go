// Package wire defines the fdb NDJSON wire protocol: the typed frames
// exchanged between clients, the query server (internal/server) and the
// scatter-gather coordinator (internal/cluster). The format is
// specified normatively in docs/PROTOCOL.md; this package is its
// reference implementation, and every frame type here has an
// encode/decode round-trip test.
//
// A streaming query response is a sequence of newline-delimited JSON
// values:
//
//	{"columns":["a","b"],"cached":false}   header  (exactly one, first)
//	[1,"x"]                                row     (zero or more)
//	{"rowCount":1,"elapsedMillis":0.42}    trailer (exactly one, last,
//	                                        unless the stream was cut)
//
// Errors detected before the header travel as an HTTP error status with
// an {"error":"..."} body; errors detected mid-stream travel in the
// trailer's "error" field, because the HTTP status is already written.
// A stream that ends without a trailer was cancelled mid-row and must
// be discarded.
//
// Frames are classified structurally, not positionally: a line opening
// with '[' is a row; an object with a "columns" key is a header;
// any other object is a trailer (or, on a non-200 response, an error
// body). This keeps the protocol self-describing for proxies — the
// coordinator stitches worker streams without tracking position.
//
// The package is also the one response writer: the serial server and
// the coordinator encode values with AppendValue and write every
// response through the Sink NewSink selects, so the bytes they send
// cannot drift apart. Both front ends also admit and drain their
// requests through one Gate.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Version is the NDJSON protocol version implemented by this package,
// as specified in docs/PROTOCOL.md. Version 1 covers the header, row,
// trailer and error frames plus the shard-fanout extensions (the
// /shard/install endpoint and offset-resume semantics); it is fully
// backward compatible with the pre-versioned streams shipped by
// earlier servers.
const Version = 1

// ContentType is the MIME type that selects the streaming NDJSON
// response on POST /query (via the Accept header) and marks one on the
// response Content-Type.
const ContentType = "application/x-ndjson"

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// SQL is the SELECT statement to execute.
	SQL string `json:"sql"`
	// DB names the target database; empty selects the default.
	DB string `json:"db,omitempty"`
}

// Header is the first frame of a streaming response.
type Header struct {
	// Columns names the result columns in output order.
	Columns []string `json:"columns"`
	// Cached reports whether the statement hit the server's plan cache
	// (on a coordinator: its distribution-strategy cache).
	Cached bool `json:"cached"`
}

// Row is one result row decoded by DecodeRow: a JSON array with one
// value per column, each kept as its raw bytes. The coordinator does
// not use it: it relays row lines verbatim and scans only the columns
// it merges on (internal/cluster).
type Row []json.RawMessage

// Trailer is the last frame of a streaming response. An error after
// streaming began cannot change the HTTP status any more, so it
// travels in the trailer's Error field.
type Trailer struct {
	RowCount      int     `json:"rowCount"`
	Truncated     bool    `json:"truncated,omitempty"`
	ElapsedMillis float64 `json:"elapsedMillis"`
	Error         string  `json:"error,omitempty"`
}

// ErrorBody is the JSON body of a non-200 response (and of every
// non-streaming error).
type ErrorBody struct {
	Error string `json:"error"`
}

// Kind classifies a decoded frame.
type Kind uint8

// The frame kinds of a streaming response.
const (
	KindHeader Kind = iota
	KindRow
	KindTrailer
)

// Classify determines the frame kind of one NDJSON line without fully
// decoding it: '[' opens a row; an object containing a "columns" key is
// a header; any other object is a trailer. It returns an error for
// anything else (the line is then not part of a valid stream).
func Classify(line []byte) (Kind, error) {
	t := bytes.TrimLeft(line, " \t\r\n")
	if len(t) == 0 {
		return 0, fmt.Errorf("wire: empty frame")
	}
	switch t[0] {
	case '[':
		return KindRow, nil
	case '{':
		// Headers are distinguished by their mandatory "columns" key.
		// Probing the raw bytes first avoids decoding every row-sized
		// trailer candidate twice; the probe is verified by a real
		// decode so a row value containing the text never misleads.
		if bytes.Contains(t, []byte(`"columns"`)) {
			var m map[string]json.RawMessage
			if err := json.Unmarshal(t, &m); err != nil {
				return 0, fmt.Errorf("wire: bad frame: %w", err)
			}
			if _, ok := m["columns"]; ok {
				return KindHeader, nil
			}
		}
		return KindTrailer, nil
	default:
		return 0, fmt.Errorf("wire: bad frame start %q", t[0])
	}
}

// DecodeHeader decodes a header frame.
func DecodeHeader(line []byte) (Header, error) {
	var h Header
	if err := json.Unmarshal(line, &h); err != nil {
		return Header{}, fmt.Errorf("wire: bad header: %w", err)
	}
	if h.Columns == nil {
		return Header{}, fmt.Errorf("wire: header has no columns")
	}
	return h, nil
}

// DecodeRow decodes a row frame, keeping each column value as its raw
// JSON bytes.
func DecodeRow(line []byte) (Row, error) {
	var r Row
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, fmt.Errorf("wire: bad row: %w", err)
	}
	return r, nil
}

// DecodeTrailer decodes a trailer frame.
func DecodeTrailer(line []byte) (Trailer, error) {
	var t Trailer
	if err := json.Unmarshal(line, &t); err != nil {
		return Trailer{}, fmt.Errorf("wire: bad trailer: %w", err)
	}
	return t, nil
}

// DecodeError decodes a non-200 response body.
func DecodeError(body []byte) (ErrorBody, error) {
	var e ErrorBody
	if err := json.Unmarshal(body, &e); err != nil {
		return ErrorBody{}, fmt.Errorf("wire: bad error body: %w", err)
	}
	return e, nil
}

// AppendRow appends the NDJSON encoding of a row assembled from raw
// column values — "[c1,c2,…]\n" — to dst. It is the byte-preserving
// counterpart of json.Encoder.Encode(Row): forwarded columns keep the
// exact bytes they arrived with.
func AppendRow(dst []byte, cols []json.RawMessage) []byte {
	dst = append(dst, '[')
	for i, c := range cols {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, c...)
	}
	return append(dst, ']', '\n')
}
