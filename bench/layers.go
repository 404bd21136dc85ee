package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/wire"
)

// layerProbes times the layers a replayed request does not pass
// through, on this workload's own data: the wire codec on the
// workload's largest response, and the catalogue's build / write / load
// path on its relations.
func (r *run) layerProbes(t *tracer) error {
	if err := r.wireProbe(t); err != nil {
		return err
	}
	return r.catalogProbe()
}

// wireProbeRows bounds the response lines the wire probe works on.
const wireProbeRows = 4096

// wireProbe encodes (up to wireProbeRows of) the workload's largest
// result as NDJSON row lines, then times what a relay does with each
// line: Classify + DecodeRow on the way in, AppendRow on the way out.
func (r *run) wireProbe(t *tracer) error {
	var big *stmt
	for st := range t.prep {
		if big == nil || st.want.rows > big.want.rows {
			big = st
		}
	}
	res, err := t.prep[big].ExecSharedContext(context.Background(), r.env.db())
	if err != nil {
		return err
	}
	defer res.Close()
	rows, err := res.Rows(context.Background())
	if err != nil {
		return err
	}
	defer rows.Close()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var row []any
	n := 0
	for n < wireProbeRows && rows.Next() {
		row = row[:0]
		for _, v := range rows.Tuple() {
			row = append(row, fdb.GoValue(v))
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	for len(lines) < wireProbeRows { // small results repeat, so a pass times thousands of rows
		lines = append(lines, lines...)
	}

	const passes = 8
	decoded := make([]wire.Row, len(lines))
	var decodeNs, appendNs []float64
	var out []byte
	for p := 0; p < passes; p++ {
		start := time.Now()
		for i, line := range lines {
			if k, err := wire.Classify(line); err != nil || k != wire.KindRow {
				return fmt.Errorf("wire probe: line %d classified %v: %v", i, k, err)
			}
			if decoded[i], err = wire.DecodeRow(line); err != nil {
				return err
			}
		}
		decodeNs = append(decodeNs, float64(time.Since(start))/float64(len(lines)))
		start = time.Now()
		for _, cols := range decoded {
			out = wire.AppendRow(out[:0], cols)
		}
		appendNs = append(appendNs, float64(time.Since(start))/float64(len(lines)))
	}
	r.put("wire.decode_ns_per_row", "ns", median(decodeNs))
	r.put("wire.append_ns_per_row", "ns", median(appendNs))
	return nil
}

// catalogProbe times catalog.Build, catalog.WriteFile and the
// memory-mapped load separately (set-up pays their sum) and relates the
// snapshot's size to the size of the flat tuples it holds.
func (r *run) catalogProbe() error {
	const reps = 3
	var build, write, load []float64
	path := filepath.Join(r.dir, "probe.fdbcat")
	for i := 0; i < reps; i++ {
		start := time.Now()
		cat, err := catalog.Build("probe", r.flat)
		if err != nil {
			return err
		}
		build = append(build, msSince(start))
		start = time.Now()
		if err := catalog.WriteFile(path, cat); err != nil {
			return err
		}
		write = append(write, msSince(start))
		start = time.Now()
		loaded, err := fdb.LoadCatalogFile(path, true)
		if err != nil {
			return err
		}
		load = append(load, msSince(start))
		if err := loaded.Close(); err != nil {
			return err
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	userBytes := 0
	for _, rel := range r.flat {
		userBytes += 8 * len(rel.Attrs) * len(rel.Tuples) // every generated value is an int64
	}
	r.put("catalog.build_ms", "ms", median(build))
	r.put("catalog.write_ms", "ms", median(write))
	r.put("catalog.load_ms", "ms", median(load))
	r.put("catalog.bytes_per_user_byte", "ratio", ratio(float64(info.Size()), float64(userBytes)))
	return nil
}
