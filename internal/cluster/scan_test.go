package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/wire"
)

// refParseVal is the reference decoder parseVal must agree with: each
// column through encoding/json, numbers without a fraction or exponent
// as Int unless int64 overflows.
func refParseVal(raw json.RawMessage) (values.Value, error) {
	t := bytes.TrimSpace(raw)
	if len(t) == 0 {
		return values.Value{}, fmt.Errorf("empty column value")
	}
	switch t[0] {
	case '"':
		var s string
		if err := json.Unmarshal(t, &s); err != nil {
			return values.Value{}, err
		}
		return values.NewString(s), nil
	case 't', 'f':
		var b bool
		if err := json.Unmarshal(t, &b); err != nil {
			return values.Value{}, err
		}
		return values.NewBool(b), nil
	case 'n':
		if !bytes.Equal(t, []byte("null")) {
			return values.Value{}, fmt.Errorf("bad value %q", t)
		}
		return values.NullValue(), nil
	case '[':
		var elems []json.RawMessage
		if err := json.Unmarshal(t, &elems); err != nil {
			return values.Value{}, err
		}
		vs := make([]values.Value, len(elems))
		for i, e := range elems {
			v, err := refParseVal(e)
			if err != nil {
				return values.Value{}, err
			}
			vs[i] = v
		}
		return values.NewVec(vs), nil
	default:
		if !bytes.ContainsAny(t, ".eE") {
			var i int64
			if err := json.Unmarshal(t, &i); err == nil {
				return values.NewInt(i), nil
			}
		}
		var f float64
		if err := json.Unmarshal(t, &f); err != nil {
			return values.Value{}, fmt.Errorf("bad value %q: %w", t, err)
		}
		return values.NewFloat(f), nil
	}
}

// sameValue reports whether a and b have the same kind and value, a
// Float down to its bits (so -0 differs from 0), a Vec element-wise.
func sameValue(a, b values.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case values.Float:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case values.Vec:
		if a.VecLen() != b.VecLen() {
			return false
		}
		for i := 0; i < a.VecLen(); i++ {
			if !sameValue(a.VecAt(i), b.VecAt(i)) {
				return false
			}
		}
		return true
	}
	return values.Compare(a, b) == 0
}

// Fuzz input layout, as FuzzAppendValue's: a tag byte (mod 6) picks the
// kind; Int and Float take 8 little-endian bytes (a Float's are its raw
// bits), String a length byte and that many raw bytes, Bool one byte,
// Null nothing, and Vec a count byte (mod 4) and that many nested values.
const (
	tagInt byte = iota
	tagFloat
	tagString
	tagBool
	tagNull
	tagVec
)

// fuzzValue decodes one value from data and returns it with the rest of
// data. Missing bytes read as zero.
func fuzzValue(data []byte, depth int) (values.Value, []byte) {
	take := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	tag := take(1)[0] % 6
	if tag == tagVec && depth >= 3 {
		tag = tagNull
	}
	switch tag {
	case tagInt:
		return values.NewInt(int64(binary.LittleEndian.Uint64(take(8)))), data
	case tagFloat:
		return values.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(take(8)))), data
	case tagString:
		return values.NewString(string(take(int(take(1)[0])))), data
	case tagBool:
		return values.NewBool(take(1)[0]&1 == 1), data
	case tagVec:
		vs := make([]values.Value, take(1)[0]%4)
		for i := range vs {
			vs[i], data = fuzzValue(data, depth+1)
		}
		return values.NewVec(vs), data
	default:
		return values.NullValue(), data
	}
}

func seedInt(i int64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{tagInt}, uint64(i))
}

func seedFloat(f float64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{tagFloat}, math.Float64bits(f))
}

func seedString(s string) []byte { return append([]byte{tagString, byte(len(s))}, s...) }

// checkLine holds the scanner to wire.DecodeRow and parseVal to
// refParseVal on one line: an accepted line must decode to the same
// columns and values; a line DecodeRow rejects must be rejected.
func checkLine(t *testing.T, line []byte) {
	t.Helper()
	spans, err := scanRow(line, nil)
	raw, rerr := wire.DecodeRow(line)
	if err != nil {
		return
	}
	if rerr != nil {
		t.Fatalf("scanner accepts %q, DecodeRow rejects it: %v", line, rerr)
	}
	if len(spans) != len(raw) {
		t.Fatalf("%q: %d spans, DecodeRow has %d columns", line, len(spans), len(raw))
	}
	for k, s := range spans {
		col := line[s.off:s.end]
		if !bytes.Equal(col, raw[k]) {
			t.Fatalf("%q column %d: span %q, DecodeRow %q", line, k, col, raw[k])
		}
		got, gerr := parseVal(col)
		want, werr := refParseVal(raw[k])
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("%q column %d: parseVal error %v, reference %v", line, k, gerr, werr)
		}
		if gerr == nil && !sameValue(got, want) {
			t.Fatalf("%q column %d: parseVal %v (%v), reference %v (%v)", line, k, got, got.Kind(), want, want.Kind())
		}
	}
}

// FuzzScanRow: for every row AppendTuple encodes, the scanner's spans
// are DecodeRow's columns and parseVal of each equals the encoding/json
// reference; for any hostile line the scanner does not panic and
// accepts nothing DecodeRow rejects.
func FuzzScanRow(f *testing.F) {
	for _, s := range []string{"", "<>&", "\b\f\n\r\t", "\x00\x1f\x7f", `"\`, "a\xffb", "\u2028", "h\u00e9llo \U0001F600", "\ufffd"} {
		f.Add(seedString(s))
	}
	for _, x := range []float64{
		math.Copysign(0, -1), 5e-324, 1e21, math.Nextafter(1e21, 0), 1e-6, math.Nextafter(1e-6, 0),
		1 << 63, -(1 << 63), math.Nextafter(-(1 << 63), math.Inf(-1)), 1e20, 3, 0.1, math.MaxFloat64,
	} {
		f.Add(seedFloat(x))
	}
	f.Add(seedInt(math.MaxInt64))
	f.Add(seedInt(math.MinInt64))
	f.Add([]byte{tagBool, 1, tagBool, 0, tagNull})
	f.Add(append(append([]byte{tagVec, 3}, seedInt(7)...), append(seedString("x\"y"), tagVec, 1, tagNull)...))
	for _, line := range []string{
		"[]\n", "[1,\"a\\\"b\",[2,[3,[]]],true,null,-0.5e-3]\n", "[9223372036854775808,-9223372036854775809]\n",
		"[\"\\ud83d\\ude00\",\"\\ud800\",\"\\ud800\\u0041\",\"\\u00e9\\/\"]\n", "[1e400]\n", "[1E+2,-0,0.0]\n",
		"[\"a\xffb\",\"\xed\xa0\x80\"]\n",
		"[", "[1,]\n", "[01]\n", "[1 ]\n", "[-]\n", "[1.]\n", "[.5]\n", "[1e]\n", "[\"\x01\"]\n", "[\"\\x\"]\n",
		"[\"\\u12\"]\n", "[tru]\n", "[[1]\n", "[1]]\n", "[{}]\n", "[1]", "[1]\r\n", "null\n", "[[[[[[[[[[]]]]]]]]]]\n",
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLine(t, data)
		var tuple []values.Value
		for rest := data; len(rest) > 0; {
			var v values.Value
			v, rest = fuzzValue(rest, 0)
			tuple = append(tuple, v)
		}
		line, err := wire.AppendTuple(nil, tuple)
		if err != nil {
			return // a non-finite float: no row to scan
		}
		if _, err := scanRow(line, nil); err != nil {
			t.Fatalf("scanner rejects AppendTuple's %q: %v", line, err)
		}
		checkLine(t, line)
	})
}

// TestScanRowNesting: arrays nest inside a row exactly as deep as
// encoding/json allows, and the deepest parse in linear time.
func TestScanRowNesting(t *testing.T) {
	nested := func(depth int) []byte {
		return []byte(strings.Repeat("[", depth) + strings.Repeat("]", depth) + "\n")
	}
	deepest := nested(maxNesting)
	spans, err := scanRow(deepest, nil)
	if err != nil {
		t.Fatalf("depth %d: %v", maxNesting, err)
	}
	if _, err := wire.DecodeRow(deepest); err != nil {
		t.Fatalf("depth %d: DecodeRow: %v", maxNesting, err)
	}
	if _, err := parseVal(deepest[spans[0].off:spans[0].end]); err != nil {
		t.Fatalf("depth %d: parseVal: %v", maxNesting, err)
	}
	if _, err := scanRow(nested(maxNesting+1), nil); err == nil {
		t.Fatalf("depth %d accepted", maxNesting+1)
	}
	if _, err := wire.DecodeRow(nested(maxNesting + 1)); err == nil {
		t.Fatalf("depth %d: DecodeRow accepts it", maxNesting+1)
	}
	checkLine(t, nested(64))
}
