package cluster

// The relay scanner: shard row lines are split into column spans in
// place and only the columns the merge needs are parsed, straight from
// the line's bytes. The grammar is exactly what wire.AppendValue emits —
// no whitespace, arrays as the only container — so a line the scanner
// accepts is one encoding/json accepts too, with the same columns.

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/factordb/fdb/internal/values"
)

// span is one column of a row line: line[off:end] is the column's JSON.
type span struct{ off, end int }

// maxNesting bounds array nesting inside a row, row included, as
// encoding/json bounds it.
const maxNesting = 10000

// scanRow appends the column spans of the row frame line — "[c1,…]\n" —
// to spans. It allocates nothing beyond growing spans and rejects any
// line outside AppendTuple's grammar.
func scanRow(line []byte, spans []span) ([]span, error) {
	n := len(line)
	if n < 3 || line[0] != '[' || line[n-2] != ']' || line[n-1] != '\n' {
		return spans, fmt.Errorf("cluster: bad row frame %.80q", line)
	}
	body := line[:n-1]
	if n == 3 {
		return spans, nil // "[]\n"
	}
	for i := 1; ; {
		end := scanValue(body, i, 1)
		if end < 0 || end >= len(body) {
			return spans, fmt.Errorf("cluster: bad row value at byte %d of %.80q", i, line)
		}
		spans = append(spans, span{i, end})
		switch {
		case body[end] == ',':
			i = end + 1
		case end == len(body)-1: // the closing ']'
			return spans, nil
		default:
			return spans, fmt.Errorf("cluster: bad row value at byte %d of %.80q", end, line)
		}
	}
}

// scanValue returns the end of the value starting at b[i], or -1 when
// none starts there. depth counts the arrays already open around it.
// Arrays are the only container, so nesting needs a counter, not a
// stack.
func scanValue(b []byte, i, depth int) int {
	open := 0
	for {
		if i >= len(b) {
			return -1
		}
		switch b[i] {
		case '[':
			if open++; depth+open > maxNesting {
				return -1
			}
			if i++; i >= len(b) || b[i] != ']' {
				continue // the first element follows
			}
			i++
			open--
		case '"':
			i = scanString(b, i)
		case 't':
			i = scanLiteral(b, i, "true")
		case 'f':
			i = scanLiteral(b, i, "false")
		case 'n':
			i = scanLiteral(b, i, "null")
		default:
			i = scanNumber(b, i)
		}
		if i < 0 {
			return -1
		}
		// A value ended at i: close the arrays it ends, or go on to the
		// next element of the innermost one.
		for open > 0 && i < len(b) && b[i] == ']' {
			i++
			open--
		}
		if open == 0 {
			return i
		}
		if i >= len(b) || b[i] != ',' {
			return -1
		}
		i++
	}
}

func scanLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// scanString returns the end of the JSON string opening at b[i]: raw
// bytes from 0x20 up, and the escapes \" \\ \/ \b \f \n \r \t \uXXXX.
func scanString(b []byte, i int) int {
	for i++; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c == '\\':
			if i+1 >= len(b) {
				return -1
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if len(b)-i < 6 {
					return -1
				}
				for _, h := range b[i+2 : i+6] {
					if unhex(h) < 0 {
						return -1
					}
				}
				i += 6
			default:
				return -1
			}
		case c < 0x20:
			return -1
		default:
			i++
		}
	}
	return -1
}

// scanNumber returns the end of the JSON number starting at b[i]:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			return -1
		}
	}
	return i
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// parseVal decodes one scanned column into an engine value, the inverse
// of wire.AppendValue and what encoding/json would decode: numbers with
// no fraction or exponent are Int unless they overflow int64, then
// Float, so merge arithmetic and comparisons run in the domain the
// serial engine used. b must be a span scanRow accepted.
func parseVal(b []byte) (values.Value, error) {
	switch b[0] {
	case '"':
		s := b[1 : len(b)-1]
		if bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
			return values.NewString(string(s)), nil
		}
		return values.NewString(string(unquote(s))), nil
	case 't':
		return values.NewBool(true), nil
	case 'f':
		return values.NewBool(false), nil
	case 'n':
		return values.NullValue(), nil
	case '[':
		v, _, err := parseVec(b, 0)
		return v, err
	}
	if bytes.IndexAny(b, ".eE") < 0 {
		if i, ok := parseInt(b); ok {
			return values.NewInt(i), nil
		}
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return values.Value{}, fmt.Errorf("cluster: bad value %q: %w", b, err)
	}
	return values.NewFloat(f), nil
}

// parseVec parses the scanned array opening at b[i] and returns it with
// the index just past it. Nested arrays are parsed where they stand, so
// a deep vector costs its length, not its length times its depth.
func parseVec(b []byte, i int) (values.Value, int, error) {
	var vs []values.Value
	for i++; b[i] != ']'; {
		var v values.Value
		var end int
		var err error
		if b[i] == '[' {
			v, end, err = parseVec(b, i)
		} else {
			end = scanValue(b, i, 1)
			v, err = parseVal(b[i:end])
		}
		if err != nil {
			return values.Value{}, 0, err
		}
		vs = append(vs, v)
		if i = end; b[i] == ',' {
			i++
		}
	}
	return values.NewVec(vs), i + 1, nil
}

// parseInt parses a decimal integer, false when it overflows int64.
// Up to 18 digits cannot overflow, so they take a loop with no
// allocation; longer ones go through strconv.
func parseInt(b []byte) (int64, bool) {
	neg := b[0] == '-'
	d := b
	if neg {
		d = b[1:]
	}
	if len(d) > 18 {
		i, err := strconv.ParseInt(string(b), 10, 64)
		return i, err == nil
	}
	var n int64
	for _, c := range d {
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// unquote decodes the body of a scanned JSON string as encoding/json
// does: escapes resolve, an unpaired surrogate and each invalid UTF-8
// byte become U+FFFD.
func unquote(s []byte) []byte {
	out := make([]byte, 0, len(s)+2*utf8.UTFMax)
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if len(s)-r >= 6 && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
							out = utf8.AppendRune(out, dec)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, rr)
				continue
			default: // '"', '\\', '/'
				out = append(out, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	return out
}

// getu4 decodes the four hex digits of the \uXXXX escape opening s.
func getu4(s []byte) rune {
	var r rune
	for _, c := range s[2:6] {
		r = r<<4 | unhex(c)
	}
	return r
}
