package engine

// Intra-query parallel enumeration, for the one path where it pays: a
// large flat projection read to the end. Its cursor iterates an
// outermost loop over one root union of the arena representation (the
// odometer's slot 0); that union partitions into contiguous segments,
// each enumerated by an independent worker cursor over the shared
// read-only store. The consumer drains the workers' row chunks in
// slot-0 iteration order (ascending segments, or descending for a DESC
// outer order), so the merged stream is byte-identical to the serial
// cursor's — the paper's ordering guarantees survive because segment
// boundaries respect the order's primary attribute. Workers run ahead
// of the consumer by a bounded number of chunks, keeping memory
// O(parallelism), and are joined by Rows.Close (or Result.Close) so no
// worker ever touches a recycled pooled store. A windowed query (OFFSET,
// or a LIMIT below the floor) enumerates serially: the serial cursor
// seeks to the page through the ranked index, which a fan-out would
// hide behind per-row hand-off.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// minParallelEnumRows is the smallest outer-loop universe for which
// enumeration fans out, and the smallest LIMIT that still allows it;
// smaller results enumerate serially (chunk hand-off would cost more
// than it saves). A variable so tests can force either path.
var minParallelEnumRows = 4096

const (
	// parChunkRows is how many rows a worker batches per hand-off.
	parChunkRows = 256
	// parChunkBuf is how many chunks each segment buffers ahead of the
	// consumer.
	parChunkBuf = 4
)

// Cumulative intra-query parallelism counters, surfaced by
// ParallelStats for the server's /stats accounting.
var (
	parQueries     atomic.Int64
	parEnumWorkers atomic.Int64
)

// ParStats are cumulative intra-query parallelism counters: queries
// executed with a parallelism budget above 1, and segment workers
// spawned per layer (enumeration cursors, f-plan operators), plus
// pooled-store returns for leak accounting. EvalWorkers is always 0:
// aggregate evaluation runs serially; the field stays for the callers
// that construct ParStats.
type ParStats struct {
	Queries      int64 `json:"queries"`
	EnumWorkers  int64 `json:"enumWorkers"`
	OpWorkers    int64 `json:"opWorkers"`
	EvalWorkers  int64 `json:"evalWorkers"`
	StoreReturns int64 `json:"storeReturns"`
}

// ParallelStats returns the process-wide parallel execution counters.
func ParallelStats() ParStats {
	return ParStats{
		Queries:      parQueries.Load(),
		EnumWorkers:  parEnumWorkers.Load(),
		OpWorkers:    fops.ParallelRebuildWorkers(),
		StoreReturns: storeReturns.Load(),
	}
}

// StorePoolReturns returns the cumulative number of pooled arena stores
// handed back (Result.Close and error paths); tests use it to assert
// that every execution returns its store exactly once.
func StorePoolReturns() int64 { return storeReturns.Load() }

// noteParallelExec records one query executed with a parallelism
// budget above 1, for /stats accounting.
func noteParallelExec(ar *fops.ARel) {
	if ar.Par > 1 {
		parQueries.Add(1)
	}
}

// maxEnumFanout caps enumeration fan-out at the runnable cores. Unlike
// operator fan-out (whose segmented passes stay cheap even when
// time-sliced), enumeration fan-out pays a per-row hand-off from worker
// to consumer; without a spare core to overlap that hand-off with
// production it is pure overhead, so segments beyond GOMAXPROCS can
// only slow the merge down. A variable so tests can exercise the merge
// machinery on small machines.
var maxEnumFanout = runtime.GOMAXPROCS(0)

// parSeg is one segment's hand-off lane.
type parSeg struct {
	ch chan []relation.Tuple
	// err is the worker's terminal error; written before ch closes, so
	// the consumer reads it only after the close is observed.
	err error
}

// parCursor merges per-segment worker cursors into one stream, draining
// the segments in the given order. Rows produced before a worker's
// error are delivered first, matching the serial cursor's
// rows-then-error behaviour.
type parCursor struct {
	segs   []*parSeg
	cur    int
	chunk  []relation.Tuple
	pos    int
	quit   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// newParCursor spawns one worker per segment cursor. curs is in segment
// order; reverse drains (and therefore emits) the segments back to
// front, for DESC outer orders whose serial odometer walks the root
// union backwards.
func newParCursor(curs []rowCursor, reverse bool) *parCursor {
	pc := &parCursor{quit: make(chan struct{})}
	pc.segs = make([]*parSeg, len(curs))
	parEnumWorkers.Add(int64(len(curs)))
	for i := range curs {
		pc.segs[i] = &parSeg{ch: make(chan []relation.Tuple, parChunkBuf)}
	}
	if reverse {
		for i, j := 0, len(pc.segs)-1; i < j; i, j = i+1, j-1 {
			pc.segs[i], pc.segs[j] = pc.segs[j], pc.segs[i]
			curs[i], curs[j] = curs[j], curs[i]
		}
	}
	for i := range curs {
		c, seg := curs[i], pc.segs[i]
		pc.wg.Add(1)
		go func() {
			defer pc.wg.Done()
			defer close(seg.ch)
			chunk := make([]relation.Tuple, 0, parChunkRows)
			// One backing array per chunk: rows are copied into buf and
			// sliced out of it, so a chunk costs one allocation instead of
			// one Clone per row. The consumer owns the chunk after the
			// hand-off, so buf is abandoned (never appended to) once sent.
			var buf []values.Value
			flush := func() bool {
				if len(chunk) == 0 {
					return true
				}
				select {
				case seg.ch <- chunk:
					chunk = make([]relation.Tuple, 0, parChunkRows)
					buf = nil
					return true
				case <-pc.quit:
					return false
				}
			}
			for {
				t, ok, err := c.step()
				if err != nil {
					_ = flush()
					seg.err = err
					return
				}
				if !ok {
					_ = flush()
					return
				}
				if buf == nil {
					buf = make([]values.Value, 0, parChunkRows*len(t))
				}
				start := len(buf)
				buf = append(buf, t...)
				chunk = append(chunk, relation.Tuple(buf[start:len(buf):len(buf)]))
				if len(chunk) == parChunkRows && !flush() {
					return
				}
			}
		}()
	}
	return pc
}

func (pc *parCursor) step() (relation.Tuple, bool, error) {
	for {
		if pc.pos < len(pc.chunk) {
			t := pc.chunk[pc.pos]
			pc.pos++
			return t, true, nil
		}
		if pc.cur >= len(pc.segs) {
			return nil, false, nil
		}
		seg := pc.segs[pc.cur]
		chunk, ok := <-seg.ch
		if !ok {
			if seg.err != nil {
				pc.cur = len(pc.segs)
				return nil, false, seg.err
			}
			pc.cur++
			continue
		}
		pc.chunk, pc.pos = chunk, 0
	}
}

// skip steps past rows: a parCursor serves only unwindowed queries, so
// it never skips an OFFSET; skip exists for the rowCursor contract.
func (pc *parCursor) skip(n int) (int, error) { return skipBySteps(pc, n) }

// close stops and joins the workers. Idempotent; safe before, during or
// after exhaustion.
func (pc *parCursor) close() {
	if pc.closed {
		return
	}
	pc.closed = true
	close(pc.quit)
	pc.wg.Wait()
}

// fanOutWindow reports whether the query's window lets a flat
// projection fan out: no OFFSET, and no LIMIT below
// minParallelEnumRows. A windowed query stays serial so its cursor can
// seek to the page and count through the ranked index.
func (r *Result) fanOutWindow() bool {
	q := r.Query
	return q.Offset == 0 && (q.Limit == 0 || q.Limit >= minParallelEnumRows)
}

// fanOut spreads a flat projection across segment workers when the
// parallelism budget and the outer-loop universe allow: probe (over en,
// not yet stepped) becomes segment 0, build makes the cursor of every
// further segment, and a parCursor merges them in drain order (desc:
// the outer loop runs descending). Otherwise probe is returned as is.
func (r *Result) fanOut(probe *enumCursor, en *frep.StoreEnumerator, build func() (*enumCursor, *frep.StoreEnumerator, error), desc bool) (rowCursor, error) {
	par := min(r.ARel.Par, maxEnumFanout)
	n := en.SegmentUniverse()
	if par < 2 || n < minParallelEnumRows {
		return probe, nil
	}
	// Count-balanced windows via the ranked index, so a hot outer value
	// does not serialise the merge behind one worker; uniform otherwise.
	segs := en.WeightedSegments(par)
	if segs == nil {
		segs = frep.Segments(n, par)
	}
	if len(segs) < 2 {
		return probe, nil
	}
	curs := make([]rowCursor, len(segs))
	en.Restrict(segs[0][0], segs[0][1])
	curs[0] = probe
	for w := 1; w < len(segs); w++ {
		c, e, err := build()
		if err != nil {
			return nil, err
		}
		e.Restrict(segs[w][0], segs[w][1])
		curs[w] = c
	}
	return newParCursor(curs, desc), nil
}
