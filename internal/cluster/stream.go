package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/factordb/fdb/internal/wire"
)

// queryError is a deterministic error from a shard (bad SQL, unknown
// relation, execution failure): retrying another replica would fail
// identically, so it propagates to the client instead.
type queryError struct{ msg string }

func (e *queryError) Error() string { return e.msg }

// readerPool recycles the 64 KiB line buffers of frameReaders: a query
// opens one stream per shard, and a fresh buffer each time would be
// most of what relaying a query allocates.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// frameReader reads one replica's NDJSON response: header first, then
// rows until the trailer. Lines are read in place from br's buffer, a
// pooled one that close returns; one longer than that buffer
// accumulates in long.
type frameReader struct {
	body   io.ReadCloser
	br     *bufio.Reader
	long   []byte
	header wire.Header
	base   string // replica base URL, for failure attribution
	// cancel, when set, releases the per-attempt context a hedged open
	// created for this stream; close calls it.
	cancel context.CancelFunc
}

// readLine returns the next line, '\n' included. It is valid until the
// next call, which may overwrite it, or until close.
func (fr *frameReader) readLine() ([]byte, error) {
	line, err := fr.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	fr.long = append(fr.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = fr.br.ReadSlice('\n')
		fr.long = append(fr.long, line...)
	}
	return fr.long, err
}

// next returns the next row frame, "[…]\n" as the replica sent it, with
// its column spans appended to cols; or a nil frame at a clean trailer.
// The frame is valid until the next call. A trailer carrying an
// execution error surfaces as a *queryError; a torn stream (transport
// drop before the trailer) surfaces as a transport error the caller may
// fail over from.
func (fr *frameReader) next(cols []span) ([]byte, []span, error) {
	line, err := fr.readLine()
	if err != nil {
		return nil, cols, fmt.Errorf("stream torn before trailer: %w", err)
	}
	kind, err := wire.Classify(line)
	if err != nil {
		return nil, cols, err
	}
	switch kind {
	case wire.KindRow:
		cols, err = scanRow(line, cols)
		if err != nil {
			return nil, cols, err
		}
		return line, cols, nil
	case wire.KindTrailer:
		tr, err := wire.DecodeTrailer(line)
		if err != nil {
			return nil, cols, err
		}
		if tr.Error != "" {
			return nil, cols, &queryError{msg: tr.Error}
		}
		return nil, cols, nil
	default:
		return nil, cols, fmt.Errorf("unexpected frame mid-stream: %.80s", line)
	}
}

// close releases the stream: the body, the hedge's attempt context, and
// the pooled buffer, so no line read from it may be used afterwards.
// Callers close at the trailer, on failover and at merger close, once
// the stream's last staged row has been forwarded or copied out.
func (fr *frameReader) close() {
	if fr.br != nil {
		fr.br.Reset(nil)
		readerPool.Put(fr.br)
		fr.br = nil
	}
	if fr.body != nil {
		fr.body.Close()
		fr.body = nil
	}
	if fr.cancel != nil {
		fr.cancel()
		fr.cancel = nil
	}
}

// openReplica issues the shard query against one replica and reads the
// stream header. A non-200 response or a malformed header is an error;
// 4xx bodies become *queryError (no failover), everything else is
// transport-class.
func (co *Coordinator) openReplica(ctx context.Context, base, db, sqlText string) (*frameReader, error) {
	body, err := json.Marshal(wire.QueryRequest{SQL: sqlText, DB: db})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.ContentType)
	resp, err := co.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		msg := string(b)
		if eb, err := wire.DecodeError(b); err == nil && eb.Error != "" {
			msg = eb.Error
		}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return nil, &queryError{msg: msg}
		}
		return nil, fmt.Errorf("replica %s: status %d: %s", base, resp.StatusCode, msg)
	}
	return newFrameReader(resp.Body, base)
}

// newFrameReader reads the stream header from a 200 response body; a
// body that opens with an error frame instead yields a *queryError.
func newFrameReader(body io.ReadCloser, base string) (*frameReader, error) {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(body)
	fr := &frameReader{body: body, br: br, base: base}
	line, err := fr.readLine()
	if err == nil {
		fr.header, err = decodeHeader(line, base)
	} else {
		err = fmt.Errorf("replica %s: reading header: %w", base, err)
	}
	if err != nil {
		fr.close()
		return nil, err
	}
	return fr, nil
}

// decodeHeader decodes a stream's first line, which must be a header;
// an error frame in its place yields a *queryError. Nothing it returns
// aliases line.
func decodeHeader(line []byte, base string) (wire.Header, error) {
	if kind, err := wire.Classify(line); err != nil || kind != wire.KindHeader {
		if eb, err := wire.DecodeError(line); err == nil && eb.Error != "" {
			return wire.Header{}, &queryError{msg: eb.Error}
		}
		return wire.Header{}, fmt.Errorf("replica %s: expected header, got %.80s", base, line)
	}
	return wire.DecodeHeader(line)
}

// shardStream is one logical shard's row stream with retry, hedging and
// mid-stream failover. Replicas serve identical snapshots, so a resumed
// stream continues byte-identically from the next undelivered row.
type shardStream struct {
	co       *Coordinator
	ctx      context.Context
	shard    int
	db       string
	st       *strategy
	consumed int // rows delivered to the merger
	fr       *frameReader
	header   wire.Header // first successfully opened stream's header
	opened   bool
	done     bool
}

// next returns the shard's next row frame with its column spans
// appended to cols, a nil frame when the stream is exhausted, or an
// error after all replicas failed. The frame is valid until the next
// call.
func (ss *shardStream) next(cols []span) ([]byte, []span, error) {
	for {
		if ss.done {
			return nil, cols, nil
		}
		if ss.fr == nil {
			if ss.st.pushdown > 0 && ss.consumed >= ss.st.pushdown {
				// The pushed-down LIMIT is spent; nothing left to fetch.
				ss.done = true
				return nil, cols, nil
			}
			fr, err := ss.open()
			if err != nil {
				ss.done = true
				return nil, cols, err
			}
			ss.fr = fr
			if ss.header.Columns == nil {
				ss.header = fr.header
			}
		}
		line, got, err := ss.fr.next(cols)
		if err == nil {
			if line == nil {
				ss.done = true
				ss.fr.close()
				ss.fr = nil
				return nil, got, nil
			}
			ss.consumed++
			ss.co.shardStat(ss.shard).Rows.Add(1)
			return line, got, nil
		}
		var qe *queryError
		if errors.As(err, &qe) || ss.ctx.Err() != nil {
			ss.done = true
			ss.fr.close()
			ss.fr = nil
			return nil, cols, err
		}
		// Transport drop mid-stream: fail over to another replica,
		// resuming at the first undelivered row via OFFSET.
		ss.co.noteFailure(ss.fr.base)
		ss.fr.close()
		ss.fr = nil
		ss.co.shardStat(ss.shard).Failovers.Add(1)
	}
}

func (ss *shardStream) close() {
	if ss.fr != nil {
		ss.fr.close()
		ss.fr = nil
	}
	ss.done = true
}

// open connects the stream (or reconnects it at the resume offset),
// trying replicas healthy-first with hedging on the first attempt and
// backoff between full passes.
func (ss *shardStream) open() (*frameReader, error) {
	sqlText := ss.st.resumeSQL(ss.consumed)
	if !ss.opened {
		ss.opened = true
		ss.co.shardStat(ss.shard).Queries.Add(1)
	}
	var lastErr error
	for pass := 0; pass <= ss.co.retries; pass++ {
		if pass > 0 {
			ss.co.shardStat(ss.shard).Retries.Add(1)
			select {
			case <-time.After(ss.co.backoff << (pass - 1)):
			case <-ss.ctx.Done():
				return nil, ss.ctx.Err()
			}
		}
		cands := ss.co.candidates(ss.shard)
		if pass == 0 && len(cands) > 1 && ss.co.hedgeDelay > 0 {
			fr, err := ss.openHedged(cands, sqlText)
			if err == nil {
				return fr, nil
			}
			var qe *queryError
			if errors.As(err, &qe) {
				return nil, err
			}
			lastErr = err
			continue
		}
		for _, base := range cands {
			fr, err := ss.co.openReplica(ss.ctx, base, ss.db, sqlText)
			if err == nil {
				return fr, nil
			}
			var qe *queryError
			if errors.As(err, &qe) {
				return nil, err
			}
			ss.co.noteFailure(base)
			lastErr = err
		}
	}
	return nil, fmt.Errorf("shard %d: all replicas failed: %w", ss.shard, lastErr)
}

// openHedged races the primary replica against a hedge launched after
// hedgeDelay of silence: whichever stream delivers its header first
// wins; the loser's attempt context is cancelled. Each attempt gets its
// own context so cancelling the loser cannot tear down the winner's
// body (the winner's cancel travels with its frameReader and fires on
// close). This trims tail latency when one replica is slow but alive.
func (ss *shardStream) openHedged(cands []string, sqlText string) (*frameReader, error) {
	type result struct {
		idx int
		fr  *frameReader
		err error
	}
	results := make(chan result, 2)
	var cancels []context.CancelFunc
	launch := func(idx int) {
		cctx, cancel := context.WithCancel(ss.ctx)
		cancels = append(cancels, cancel)
		go func() {
			fr, err := ss.co.openReplica(cctx, cands[idx], ss.db, sqlText)
			if err != nil {
				ss.co.noteFailure(cands[idx])
				cancel()
			} else {
				fr.cancel = cancel
			}
			results <- result{idx, fr, err}
		}()
	}
	launch(0)
	launched, got := 1, 0
	timer := time.NewTimer(ss.co.hedgeDelay)
	defer timer.Stop()
	var firstErr error
	for got < launched {
		select {
		case r := <-results:
			got++
			if r.err == nil {
				for i, c := range cancels {
					if i != r.idx {
						c()
					}
				}
				if rem := launched - got; rem > 0 {
					// Reap the loser in the background so its body closes.
					go func() {
						for i := 0; i < rem; i++ {
							if lr := <-results; lr.fr != nil {
								lr.fr.close()
							}
						}
					}()
				}
				return r.fr, nil
			}
			var qe *queryError
			if firstErr == nil || errors.As(r.err, &qe) {
				firstErr = r.err
			}
		case <-timer.C:
			if launched < len(cands) && launched < 2 {
				ss.co.shardStat(ss.shard).Hedges.Add(1)
				launch(1)
				launched++
			}
		}
	}
	return nil, firstErr
}
