// Package wirejson holds the pieces shared by the hand-written wire paths:
// Scanner, the one-pass JSON reader behind the request decoder (package
// server) and the WCET-table codec (package model), whose Float64s reads a
// table's values array in one loop, the two scalar appenders of the
// table codec and the report writer (package report), and AppendFloats,
// which writes a values array in one loop, the encode mirror of Float64s.
// encoding/json is the wire specification and the test oracle: the
// appenders produce exactly the bytes it produces for the same value, the
// Scanner reads exactly the values it reads, and the differential tests
// and fuzz targets of every caller assert the equality.
package wirejson

import (
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string literal, escaped exactly as
// json.Marshal escapes it (HTML escaping on): a backslash before `"` and
// `\`, the short forms of \b \f \n \r \t, \u00XX for the other control
// bytes and for `<`, `>`, `&`, the escaped replacement character U+FFFD
// for each invalid UTF-8 byte, and escapes for U+2028 and U+2029. While
// eight bytes remain it tests them as one word and skips straight to the
// first byte that is not plain ASCII to be copied as is.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if len(s)-i >= 8 {
			m := specialLanes(load64(s, i))
			if m == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(m) >> 3
		}
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

// load64 returns the eight bytes of s from i as a little-endian word;
// the compiler merges the byte loads into one.
func load64(s string, i int) uint64 {
	_ = s[i+7]
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
}

const (
	lanes = 0x0101010101010101 // 1 in every byte lane
	highs = 0x8080808080808080 // the high bit of every byte lane
)

// specialLanes flags each byte lane of w that AppendString cannot copy as
// is: a control byte, `"`, `\`, `<`, `>`, `&`, or a byte of a multi-byte
// or invalid UTF-8 sequence. A flagged lane has its high bit set. Lanes
// above the lowest flagged one may be flagged falsely (a borrow carries
// upward), but the lowest is exact, so its index is the first such byte.
func specialLanes(w uint64) uint64 {
	below := (w - lanes*0x20) &^ w
	return (below | zeroLanes(w^lanes*'"') | zeroLanes(w^lanes*'\\') |
		zeroLanes(w^lanes*'<') | zeroLanes(w^lanes*'>') | zeroLanes(w^lanes*'&') | w) & highs
}

// zeroLanes sets the high bit of x's zero lanes, exactly up to the lowest.
func zeroLanes(x uint64) uint64 { return (x - lanes) &^ x }

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

// AppendFloats appends vals as json.Marshal encodes a []float64: null for
// a nil slice, otherwise each value in AppendFloat's form between brackets.
// A value with the same bits as its predecessor appends the bytes the
// predecessor wrote instead of being formatted again: saturated WCET
// tables repeat most of their values. Bits, not ==, decide, because 0 and
// -0 are equal but encode differently. At the first NaN or infinity
// AppendFloats returns nil and AppendFloat's error.
func AppendFloats(dst []byte, vals []float64) ([]byte, error) {
	if vals == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	var prev uint64
	var start, end int // dst[start:end] holds the bytes prev was written as
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
			if math.Float64bits(v) == prev {
				dst = append(dst, dst[start:end]...)
				continue
			}
		}
		start = len(dst)
		var err error
		if dst, err = AppendFloat(dst, v); err != nil {
			return nil, err
		}
		prev, end = math.Float64bits(v), len(dst)
	}
	return append(dst, ']'), nil
}
