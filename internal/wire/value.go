package wire

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"github.com/factordb/fdb/internal/values"
)

// AppendValue appends the JSON encoding of v to dst, straight from its
// kind: byte for byte what encoding/json writes for the plain Go form
// of v (int64, float64, string, bool, nil, or []any for a vector), with
// no reflection and no boxing. JSON has no encoding for NaN or ±Inf, so
// a non-finite float — also inside a vector — returns encoding/json's
// own *json.UnsupportedValueError; dst is then returned unchanged.
func AppendValue(dst []byte, v values.Value) ([]byte, error) {
	switch v.Kind() {
	case values.Int:
		return strconv.AppendInt(dst, v.Int(), 10), nil
	case values.Float:
		return appendFloat(dst, v.Float())
	case values.String:
		return appendString(dst, v.Str()), nil
	case values.Bool:
		return strconv.AppendBool(dst, v.Bool()), nil
	case values.Vec:
		n := len(dst)
		dst = append(dst, '[')
		for i := 0; i < v.VecLen(); i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = AppendValue(dst, v.VecAt(i)); err != nil {
				return dst[:n], err
			}
		}
		return append(dst, ']'), nil
	default: // Null
		return append(dst, "null"...), nil
	}
}

// AppendTuple appends the row frame of a tuple — "[v1,…]\n", each value
// as AppendValue encodes it — to dst. It is AppendRow's counterpart for
// values not yet encoded; on an error dst is returned unchanged.
func AppendTuple(dst []byte, t []values.Value) ([]byte, error) {
	n := len(dst)
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendValue(dst, v); err != nil {
			return dst[:n], err
		}
	}
	return append(dst, ']', '\n'), nil
}

// appendFloat formats f as encoding/json does: the shortest decimal that
// round-trips, in 'f' form inside [1e-6, 1e21) and in 'e' form (with a
// two-digit negative exponent shortened, e-07 → e-7) outside it.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// htmlSafe marks the ASCII bytes a JSON string may carry unescaped under
// encoding/json's default HTML escaping: printable characters other
// than '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does: the short escapes for
// '"', '\\', \b, \f, \n, \r and \t; \u00XX for the other control bytes
// and for '<', '>' and '&'; \ufffd for each invalid UTF-8 byte; and
// \u2028/\u2029 for the two line separators JavaScript rejects.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, `\b`...)
			case '\f':
				dst = append(dst, `\f`...)
			case '\n':
				dst = append(dst, `\n`...)
			case '\r':
				dst = append(dst, `\r`...)
			case '\t':
				dst = append(dst, `\t`...)
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
