package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"github.com/factordb/fdb/internal/values"
)

// Fuzz input layout: a sequence of tagged values, decoded as one tuple.
// A tag byte picks the kind (mod 6); Int and Float take 8 little-endian
// bytes (a Float's are its raw bits), String a length byte and that many
// raw bytes, Bool one byte, Null nothing, and Vec a count byte (mod 4)
// followed by that many nested values.
const (
	tagInt byte = iota
	tagFloat
	tagString
	tagBool
	tagNull
	tagVec
)

// fuzzValue decodes one value from data, returning it, its plain Go form
// (what encoding/json is given for it), and the rest of data. Missing
// bytes read as zero.
func fuzzValue(data []byte, depth int) (values.Value, any, []byte) {
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
		i := int64(binary.LittleEndian.Uint64(take(8)))
		return values.NewInt(i), i, data
	case tagFloat:
		f := math.Float64frombits(binary.LittleEndian.Uint64(take(8)))
		return values.NewFloat(f), f, data
	case tagString:
		s := string(take(int(take(1)[0])))
		return values.NewString(s), s, data
	case tagBool:
		b := take(1)[0]&1 == 1
		return values.NewBool(b), b, data
	case tagVec:
		n := int(take(1)[0] % 4)
		vs, plain := make([]values.Value, n), make([]any, n)
		for i := range vs {
			vs[i], plain[i], data = fuzzValue(data, depth+1)
		}
		return values.NewVec(vs), plain, data
	default:
		return values.NullValue(), nil, data
	}
}

// Seed encoders for the layout above.
func seedInt(i int64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{tagInt}, uint64(i))
}

func seedFloat(f float64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{tagFloat}, math.Float64bits(f))
}

func seedString(s string) []byte { return append([]byte{tagString, byte(len(s))}, s...) }

func seedVec(elems ...[]byte) []byte {
	return bytes.Join(append([][]byte{{tagVec, byte(len(elems))}}, elems...), nil)
}

// checkEncoding asserts AppendValue on v equals json.Marshal(plain)
// appended after a prefix, or, when encoding/json refuses plain, that it
// fails with the same error text and leaves dst as it was.
func checkEncoding(t *testing.T, got []byte, err error, plain any, prefix string) {
	t.Helper()
	want, werr := json.Marshal(plain)
	if werr != nil {
		var uv *json.UnsupportedValueError
		if err == nil || !errors.As(err, &uv) || err.Error() != werr.Error() {
			t.Fatalf("%#v: error %v, encoding/json says %v", plain, err, werr)
		}
		if string(got) != prefix {
			t.Fatalf("%#v: failed append changed dst to %q", plain, got)
		}
		return
	}
	if err != nil || string(got) != prefix+string(want) {
		t.Fatalf("%#v: appended %q (err %v), encoding/json writes %q", plain, got, err, want)
	}
}

// FuzzAppendValue checks AppendValue and AppendTuple byte for byte
// against encoding/json on the plain Go form of every value.
func FuzzAppendValue(f *testing.F) {
	for _, s := range []string{
		"", "<>&", "\b", "\f", "\n\r\t", "\x00\x01\x1f\x7f", `"\`, "a\xffb", "\xe2\x28\xa1",
		"\u2028", "a\u2029b", "h\u00e9llo \u2603 \U0001F600",
	} {
		f.Add(seedString(s))
	}
	for _, x := range []float64{
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 5e-324, math.Copysign(0, -1),
		1 << 53, 1<<53 + 2, 3.0, -3.0, 0.1, 123456789.125, math.MaxFloat64, -1e-7, 1e-300,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(seedFloat(x))
	}
	f.Add(seedFloat(float64(1<<53 + 1))) // rounds to 2^53 as a float
	f.Add(seedInt(math.MaxInt64))
	f.Add(seedInt(math.MinInt64))
	f.Add([]byte{tagBool, 1, tagBool, 0, tagNull})
	f.Add(seedVec(seedInt(1), seedString("<x>"), seedVec(seedFloat(2.5), []byte{tagNull})))
	f.Add(seedVec(seedInt(1), seedFloat(math.NaN())))
	f.Add(seedVec())
	f.Fuzz(func(t *testing.T, data []byte) {
		var tuple []values.Value
		var plain []any
		for len(data) > 0 {
			var v values.Value
			var p any
			v, p, data = fuzzValue(data, 0)
			got, err := AppendValue([]byte("x"), v)
			checkEncoding(t, got, err, p, "x")
			tuple, plain = append(tuple, v), append(plain, p)
		}
		if plain == nil {
			plain = []any{}
		}
		got, err := AppendTuple([]byte("x"), tuple)
		if err == nil {
			if !bytes.HasSuffix(got, []byte("\n")) {
				t.Fatalf("row frame %q lacks its newline", got)
			}
			got = got[:len(got)-1]
		}
		checkEncoding(t, got, err, plain, "x")
	})
}
