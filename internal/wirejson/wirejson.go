// Package wirejson holds the pieces shared by the hand-written wire paths:
// Scanner, the one-pass JSON reader behind the request decoder (package
// server) and the WCET-table codec (package model), whose Float64s reads a
// table's values array in one loop, and the two scalar appenders of the
// table codec and the report writer (package report).
// encoding/json is the wire specification and the test oracle: the
// appenders produce exactly the bytes it produces for the same value, the
// Scanner reads exactly the values it reads, and the differential tests
// and fuzz targets of every caller assert the equality.
package wirejson

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string literal, escaped exactly as
// json.Marshal escapes it (HTML escaping on): a backslash before `"` and
// `\`, the short forms of \b \f \n \r \t, \u00XX for the other control
// bytes and for `<`, `>`, `&`, the escaped replacement character U+FFFD
// for each invalid UTF-8 byte, and escapes for U+2028 and U+2029.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
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

// AppendFloat appends f as json.Marshal encodes a float64: the shortest
// 'f' form, or the 'e' form below 1e-6 and at or above 1e21 with a
// one-digit exponent's leading zero dropped (e-07 becomes e-7). NaN and
// the infinities are not JSON numbers; for them AppendFloat returns dst
// unchanged and the *json.UnsupportedValueError json.Marshal returns.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) { //vc2m:floateq zero is the one value encoding/json keeps in 'f' form regardless of magnitude
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
