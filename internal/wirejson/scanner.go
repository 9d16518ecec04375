package wirejson

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Scanner reads one JSON document from a byte slice in a single pass, for
// the hand-written decoders of the served request. It validates everything
// it consumes — structure, string escapes, number grammar, the literals —
// so no other pass over the input is needed, and what it reads it reads
// with encoding/json's semantics: numbers come out as the bits
// strconv.ParseFloat gives encoding/json, and a string that is not plain
// valid UTF-8 is unquoted by encoding/json itself.
//
// Every method skips leading white space and advances past what it
// consumed. Errors are *Error values carrying the byte offset; Object and
// Array prefix them with the member path, so a failure deep in a document
// names where it happened.
type Scanner struct {
	data []byte
	off  int
}

// NewScanner returns a Scanner positioned at the start of data.
func NewScanner(data []byte) *Scanner {
	return &Scanner{data: data}
}

// Error is a decoding failure: the member path from the document root
// (empty at the root), the byte offset where decoding stopped, and the
// cause.
type Error struct {
	Path   string
	Offset int
	Err    error
}

func (e *Error) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("%v (offset %d)", e.Err, e.Offset)
	}
	return fmt.Sprintf("%s: %v (offset %d)", e.Path, e.Err, e.Offset)
}

func (e *Error) Unwrap() error { return e.Err }

// Errorf returns an *Error at the scanner's offset.
func (s *Scanner) Errorf(format string, args ...any) error {
	return &Error{Offset: s.off, Err: fmt.Errorf(format, args...)}
}

// within prefixes seg (a member name, or an index "[i]") to err's path,
// making err an *Error at the current offset first if it is not one.
func (s *Scanner) within(err error, seg string) error {
	e, ok := err.(*Error)
	if !ok {
		e = &Error{Offset: s.off, Err: err}
	}
	switch {
	case e.Path == "":
		e.Path = seg
	case e.Path[0] == '[':
		e.Path = seg + e.Path
	default:
		e.Path = seg + "." + e.Path
	}
	return e
}

// Remaining returns the number of bytes not yet consumed.
func (s *Scanner) Remaining() int { return len(s.data) - s.off }

func (s *Scanner) skipSpace() {
	for s.off < len(s.data) {
		switch s.data[s.off] {
		case ' ', '\t', '\n', '\r':
			s.off++
		default:
			return
		}
	}
}

// consume consumes c if it is the next non-space byte.
func (s *Scanner) consume(c byte) bool {
	if s.skipSpace(); s.off < len(s.data) && s.data[s.off] == c {
		s.off++
		return true
	}
	return false
}

// literal consumes lit if it comes next.
func (s *Scanner) literal(lit string) bool {
	if s.skipSpace(); len(s.data)-s.off >= len(lit) && string(s.data[s.off:s.off+len(lit)]) == lit {
		s.off += len(lit)
		return true
	}
	return false
}

// Null consumes the literal null if it comes next.
func (s *Scanner) Null() bool { return s.literal("null") }

// End checks that nothing but white space follows the document.
func (s *Scanner) End() error {
	if s.skipSpace(); s.off != len(s.data) {
		return s.Errorf("trailing data after the document")
	}
	return nil
}

// Object consumes an object whose member names are all in keys, each at
// most once, calling member for each with the scanner at the value and
// the name as it appears in keys. A name outside keys — a case variant of
// one included — and a repeated name are errors. Object returns false,
// consuming nothing else, if the value is null.
func (s *Scanner) Object(keys []string, member func(key string) error) (bool, error) {
	return s.object(keys, false, member)
}

// ObjectRepeat is Object with encoding/json's rule for repeated members:
// each occurrence is passed to member in turn, so the last one wins.
func (s *Scanner) ObjectRepeat(keys []string, member func(key string) error) (bool, error) {
	return s.object(keys, true, member)
}

func (s *Scanner) object(keys []string, repeatOK bool, member func(key string) error) (bool, error) {
	if s.Null() {
		return false, nil
	}
	if !s.consume('{') {
		return false, s.Errorf("expected an object")
	}
	if s.consume('}') {
		return true, nil
	}
	var seen uint64
	for {
		name, err := s.key()
		if err != nil {
			return false, err
		}
		k := -1
		for i, key := range keys {
			if string(name) == key {
				k = i
				break
			}
		}
		switch {
		case k < 0:
			return false, s.unknown(name, keys)
		case seen&(1<<k) != 0 && !repeatOK:
			return false, s.Errorf("repeated member %q", keys[k])
		}
		seen |= 1 << k
		if !s.consume(':') {
			return false, s.Errorf("expected ':' after member %q", keys[k])
		}
		if err := member(keys[k]); err != nil {
			return false, s.within(err, keys[k])
		}
		switch {
		case s.consume(','):
		case s.consume('}'):
			return true, nil
		default:
			return false, s.Errorf("expected ',' or '}' after member %q", keys[k])
		}
	}
}

// unknown is the error for a member name outside keys. encoding/json
// would match a case variant of a key; the wire schema's names are exact.
func (s *Scanner) unknown(name []byte, keys []string) error {
	for _, key := range keys {
		if strings.EqualFold(string(name), key) {
			return s.Errorf("unknown member %q (member names are case-sensitive: want %q)", name, key)
		}
	}
	return s.Errorf("unknown member %q", name)
}

// Array consumes an array, calling elem for each element with the scanner
// at the element and its index. Array returns false, consuming nothing
// else, if the value is null; an empty array returns true with no call.
func (s *Scanner) Array(elem func(i int) error) (bool, error) {
	if s.Null() {
		return false, nil
	}
	if !s.consume('[') {
		return false, s.Errorf("expected an array")
	}
	if s.consume(']') {
		return true, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return false, s.within(err, "["+strconv.Itoa(i)+"]")
		}
		switch {
		case s.consume(','):
		case s.consume(']'):
			return true, nil
		default:
			return false, s.Errorf("expected ',' or ']' in an array")
		}
	}
}

// key consumes a member name, returning its decoded bytes. A plain name
// aliases the input; any other is unquoted by encoding/json.
func (s *Scanner) key() ([]byte, error) {
	tok, plain, err := s.stringToken()
	if err != nil {
		return nil, err
	}
	if plain {
		return tok[1 : len(tok)-1], nil
	}
	var name string
	if err := json.Unmarshal(tok, &name); err != nil {
		return nil, s.Errorf("member name: %v", err)
	}
	return []byte(name), nil
}

// StringToken consumes a string and returns it as written, quotes and
// escapes included.
func (s *Scanner) StringToken() ([]byte, error) {
	tok, _, err := s.stringToken()
	return tok, err
}

// stringToken consumes and validates a string token. plain reports that
// it has no escapes and is valid UTF-8, so its content is its value.
func (s *Scanner) stringToken() (tok []byte, plain bool, err error) {
	if !s.consume('"') {
		return nil, false, s.Errorf("expected a string")
	}
	d, start := s.data, s.off-1
	escaped, ascii := false, true
	for i := s.off; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			s.off = i + 1
			tok = d[start:s.off]
			return tok, !escaped && (ascii || utf8.Valid(tok)), nil
		case c == '\\':
			n := escapeLen(d[i:])
			if n == 0 {
				s.off = i
				return nil, false, s.Errorf("invalid escape in a string")
			}
			escaped = true
			i += n - 1
		case c < 0x20:
			s.off = i
			return nil, false, s.Errorf("control character in a string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	s.off = len(d)
	return nil, false, s.Errorf("unterminated string")
}

// escapeLen returns the length of the escape sequence e starts with, or
// zero if it is not a valid JSON escape.
func escapeLen(e []byte) int {
	if len(e) < 2 {
		return 0
	}
	switch e[1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		if len(e) >= 6 && isHex(e[2]) && isHex(e[3]) && isHex(e[4]) && isHex(e[5]) {
			return 6
		}
	}
	return 0
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// String decodes a string into *dst; null leaves *dst unchanged. The
// value is a copy, never an alias of the input.
func (s *Scanner) String(dst *string) error {
	if s.Null() {
		return nil
	}
	tok, plain, err := s.stringToken()
	if err != nil {
		return err
	}
	if plain {
		*dst = string(tok[1 : len(tok)-1])
		return nil
	}
	var v string
	if err := json.Unmarshal(tok, &v); err != nil {
		return s.Errorf("%v", err)
	}
	*dst = v
	return nil
}

// Bool decodes true or false into *dst; null leaves *dst unchanged.
func (s *Scanner) Bool(dst *bool) error {
	switch {
	case s.Null():
	case s.literal("true"):
		*dst = true
	case s.literal("false"):
		*dst = false
	default:
		return s.Errorf("expected a boolean")
	}
	return nil
}

// Int decodes an integer into *dst; null leaves *dst unchanged. A
// fraction, an exponent or a value outside int is an error, as in
// encoding/json.
func (s *Scanner) Int(dst *int) error {
	if s.Null() {
		return nil
	}
	tok, err := s.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, 0)
	if err != nil {
		return s.Errorf("number %s is not an int", tok)
	}
	*dst = int(n)
	return nil
}

// Int64 is Int for an int64.
func (s *Scanner) Int64(dst *int64) error {
	if s.Null() {
		return nil
	}
	tok, err := s.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return s.Errorf("number %s is not an int64", tok)
	}
	*dst = n
	return nil
}

// Float64 decodes a number into *dst, bit-identical to what
// strconv.ParseFloat (and so encoding/json) makes of it; null leaves *dst
// unchanged. A number outside the float64 range is an error.
func (s *Scanner) Float64(dst *float64) error {
	if s.Null() {
		return nil
	}
	f, _, err := s.float()
	if err == nil {
		*dst = f
	}
	return err
}

// Float64s decodes an array of numbers into vals' backing array the way
// encoding/json decodes into a []float64 holding vals: null gives nil and
// false, [] a new empty slice, and each element is decoded as by Float64,
// so a null element keeps what the backing array held at its index. A
// fresh backing array has capacity hint, or one if hint is smaller.
//
// A number written exactly as the previous one, with nothing after it
// that could continue a number, takes the previous one's value without
// being read again: the same bytes give the same bits. Saturated WCET
// tables repeat most of their values.
func (s *Scanner) Float64s(vals []float64, hint int) ([]float64, bool, error) {
	if s.Null() {
		return nil, false, nil
	}
	if !s.consume('[') {
		return nil, false, s.Errorf("expected an array")
	}
	if s.consume(']') {
		return []float64{}, true, nil
	}
	var prev []byte // the last number read, whose value is pv
	var pv float64
	for i := 0; ; i++ {
		switch {
		case vals == nil:
			vals = make([]float64, 1, max(hint, 1))
		case i < cap(vals):
			vals = vals[:i+1]
		default:
			vals = append(vals[:i], 0)
		}
		s.skipSpace()
		d, off := s.data, s.off
		switch end := off + len(prev); {
		case prev != nil && end < len(d) && string(d[off:end]) == string(prev) && !numberByte(d[end]):
			vals[i] = pv
			s.off = end
		case off < len(d) && d[off] == 'n' && s.Null():
		default:
			f, tok, err := s.float()
			if err != nil {
				return nil, false, s.within(err, "["+strconv.Itoa(i)+"]")
			}
			vals[i], prev, pv = f, tok, f
		}
		switch {
		case s.consume(','):
		case s.consume(']'):
			return vals, true, nil
		default:
			return nil, false, s.Errorf("expected ',' or ']' in an array")
		}
	}
}

// numberByte reports whether c can continue a JSON number.
func numberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
}

// float consumes a number and returns its value and its text.
func (s *Scanner) float() (float64, []byte, error) {
	var n decimalNumber
	if err := s.decimal(&n); err != nil {
		return 0, nil, err
	}
	if f, ok := n.exact(); ok {
		return f, n.tok, nil
	}
	f, err := strconv.ParseFloat(string(n.tok), 64)
	if err != nil {
		return 0, nil, s.Errorf("number %s is out of range", n.tok)
	}
	return f, n.tok, nil
}

// decimalNumber is a JSON number as written and, when trunc is false, as
// mant × 10^exp with the sign neg: every significant digit fits mant.
type decimalNumber struct {
	tok   []byte
	mant  uint64
	exp   int
	neg   bool
	trunc bool
}

// pow10 holds the powers of ten that fit a uint64.
var pow10 = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// pow10f holds the powers of ten that are exact float64s.
var pow10f = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exact converts n without strconv when its value mant × 10^exp can be
// rounded exactly: every digit is in mant and either mant and 10^-exp are
// both exact float64s, so one IEEE division rounds their quotient
// (Clinger's fast path), or 10^|exp| fits a uint64, so integer arithmetic
// can. The result is the float64 nearest the exact value, ties to even,
// which is what ParseFloat returns, so the bits are the same. ok is false
// for every other number.
func (n *decimalNumber) exact() (f float64, ok bool) {
	switch {
	case n.trunc:
		return 0, false
	case n.exp < 0 && n.exp >= -22 && n.mant < 1<<53:
		f = float64(n.mant) / pow10f[-n.exp]
	case n.exp < -19 || n.exp > 19:
		return 0, false
	case n.mant == 0:
	case n.exp >= 0:
		hi, lo := bits.Mul64(n.mant, pow10[n.exp])
		f = nearest(hi, lo, false, 0)
	default:
		// Scale mant by 2^sh so that the quotient q lies in [2^62, 2^64):
		// 63 bits or more, with the remainder as the sticky bit.
		p := pow10[-n.exp]
		sh := 63 - bits.Len64(n.mant) + bits.Len64(p)
		var hi, lo uint64
		if sh >= 64 {
			hi = n.mant << (sh - 64)
		} else {
			hi, lo = n.mant>>(64-sh), n.mant<<sh
		}
		q, r := bits.Div64(hi, lo, p)
		f = nearest(0, q, r != 0, -sh)
	}
	if n.neg {
		f = -f
	}
	return f, true
}

// nearest rounds (hi·2^64 + lo + δ)·2^e2 to the nearest float64, ties to
// even, where δ is a positive fraction below one if sticky is set and
// zero otherwise. The value is nonzero and in the normal range.
func nearest(hi, lo uint64, sticky bool, e2 int) float64 {
	// w is the value's top 64 bits, top bit set; value ≈ w·2^e2.
	var w uint64
	if hi != 0 {
		z := bits.LeadingZeros64(hi)
		w = hi<<z | lo>>(64-z)
		sticky = sticky || lo<<z != 0
		e2 += 64 - z
	} else {
		z := bits.LeadingZeros64(lo)
		w = lo << z
		e2 -= z
	}
	// Keep 53 bits; the 11 below them and sticky decide the rounding.
	m, rest := w>>11, w&(1<<11-1)
	e2 += 11
	if rest > 1<<10 || rest == 1<<10 && (sticky || m&1 == 1) {
		m++
		if m == 1<<53 {
			m >>= 1
			e2++
		}
	}
	return math.Float64frombits(uint64(e2+52+1023)<<52 | m&(1<<52-1))
}

// number consumes a JSON number and returns its text.
func (s *Scanner) number() ([]byte, error) {
	var n decimalNumber
	err := s.decimal(&n)
	return n.tok, err
}

// decimal consumes a JSON number into n, which must be zero, validating
// its grammar and reading its decimal value in the same pass.
func (s *Scanner) decimal(n *decimalNumber) error {
	s.skipSpace()
	d, i := s.data, s.off
	if i < len(d) && d[i] == '-' {
		n.neg = true
		i++
	}
	nd := 0 // digits read into mant
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		j := n.digits(d, i)
		nd, i = j-i, j
	default:
		return s.Errorf("expected a number")
	}
	if i < len(d) && d[i] == '.' {
		j := n.digits(d, i+1)
		if j == i+1 {
			return s.Errorf("expected a digit after the decimal point")
		}
		nd += j - i - 1
		n.exp = i + 1 - j
		i = j
	}
	// mant holds up to 19 digits exactly; a longer number (leading
	// fraction zeros included) is left to strconv.
	n.trunc = nd > 19
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		sign := 1
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			if d[i] == '-' {
				sign = -1
			}
			i++
		}
		e, j := 0, i
		for ; j < len(d) && '0' <= d[j] && d[j] <= '9'; j++ {
			if e < 1e4 {
				e = e*10 + int(d[j]-'0')
			}
		}
		if j == i {
			return s.Errorf("expected a digit in the exponent")
		}
		n.exp += sign * e
		i = j
	}
	n.tok = d[s.off:i]
	s.off = i
	return nil
}

// digits reads the decimal digits of d from i into n.mant, which wraps
// past 19 of them, and returns the index of the first non-digit. While
// eight bytes remain it reads them as one word: a lane holds a digit when
// its high nibble is 3 and stays 3 with 6 added (adding 6 carries out of
// a lane only from a non-digit, so no lane before the first non-digit is
// misread). The digits before the first non-digit lane, shifted to the
// top of the word with zeros below, fold into their value in three
// multiplies.
func (n *decimalNumber) digits(d []byte, i int) int {
	m := n.mant
	for len(d)-i >= 8 {
		w := binary.LittleEndian.Uint64(d[i:])
		const hi = 0xF0F0F0F0F0F0F0F0
		k := bits.TrailingZeros64((w&hi|(w+0x0606060606060606)&hi>>4)^0x3333333333333333) >> 3
		if k == 0 {
			break
		}
		t := (w - 0x3030303030303030) << (64 - 8*k)
		t = t * (10<<8 + 1) >> 8 & 0x00FF00FF00FF00FF
		t = t * (100<<16 + 1) >> 16 & 0x0000FFFF0000FFFF
		t = t * (10000<<32 + 1) >> 32
		m = m*pow10[k] + t
		if i += k; k < 8 {
			break
		}
	}
	for ; i < len(d); i++ {
		c := d[i] - '0'
		if c > 9 {
			break
		}
		m = m*10 + uint64(c)
	}
	n.mant = m
	return i
}
