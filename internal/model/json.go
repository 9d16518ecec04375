package model

import (
	"encoding/json"
	"fmt"
	"strconv"

	"vc2m/internal/wirejson"
)

// The wire form of a ResourceTable is one JSON object with exactly five
// members, in any order: the index bounds cmin, cmax, bmin, bmax and the
// row-major values. Tables are nearly all of a system's bytes (a Platform
// A task carries 19×20 values), so both directions are written by hand;
// encoding/json on a struct of those five fields remains the specification,
// and FuzzResourceTableJSON holds the codec to it.

// MarshalJSON encodes the table as bounds plus row-major values, in the
// bytes json.Marshal writes for the five-member struct.
func (t *ResourceTable) MarshalJSON() ([]byte, error) {
	// A computed float64 takes up to ~18 bytes in its shortest form.
	b := make([]byte, 0, 64+len(t.vals)*18)
	b = strconv.AppendInt(append(b, `{"cmin":`...), int64(t.cmin), 10)
	b = strconv.AppendInt(append(b, `,"cmax":`...), int64(t.cmin+t.nc-1), 10)
	b = strconv.AppendInt(append(b, `,"bmin":`...), int64(t.bmin), 10)
	b = strconv.AppendInt(append(b, `,"bmax":`...), int64(t.bmin+t.nb-1), 10)
	b = append(b, `,"values":`...)
	if t.vals == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i, v := range t.vals {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = wirejson.AppendFloat(b, v); err != nil {
			return nil, err
		}
	}
	return append(b, "]}"...), nil
}

// UnmarshalJSON decodes the wire form in one pass over data. It accepts
// what json.Unmarshal into the five-member struct accepts — members in any
// order, the last of a repeated member winning, null leaving a bound or an
// element as it was — with two differences: a member other than the
// exact five wire keys is an error (json.Unmarshal would ignore it, or match
// a case variant), and so is a range whose size overflows int. Values
// parse with strconv.ParseFloat, as in encoding/json, so they are
// bit-identical to its; an out-of-range number is an error. The retained
// values slice has exactly the table's length and capacity.
func (t *ResourceTable) UnmarshalJSON(data []byte) error {
	s := tableScanner{data: data}
	var cmin, cmax, bmin, bmax int
	var vals []float64
	if !s.consume('{') {
		return s.errorf("a table must be a JSON object")
	}
	for more := !s.consume('}'); more; {
		key, err := s.key()
		if err != nil {
			return err
		}
		if !s.consume(':') {
			return s.errorf("expected ':' after member %q", key)
		}
		switch string(key) {
		case "cmin":
			err = s.bound(&cmin)
		case "cmax":
			err = s.bound(&cmax)
		case "bmin":
			err = s.bound(&bmin)
		case "bmax":
			err = s.bound(&bmax)
		case "values":
			vals, err = s.values(vals, valuesHint(cmin, cmax, bmin, bmax, len(data)))
		default:
			return fmt.Errorf("model: ResourceTable has unknown member %q", key)
		}
		if err != nil {
			return err
		}
		switch {
		case s.consume(','):
		case s.consume('}'):
			more = false
		default:
			return s.errorf("expected ',' or '}' after member %q", key)
		}
	}
	if s.skipSpace(); s.off != len(data) {
		return s.errorf("trailing data after the table")
	}
	nc, nb := cmax-cmin+1, bmax-bmin+1
	if cmax < cmin || bmax < bmin || cmin < 0 || bmin < 0 || nc <= 0 || nb <= 0 {
		return fmt.Errorf("model: invalid ResourceTable bounds c[%d,%d] b[%d,%d]",
			cmin, cmax, bmin, bmax)
	}
	if len(vals)%nb != 0 || len(vals)/nb != nc {
		return fmt.Errorf("model: ResourceTable has %d values, bounds need %d×%d",
			len(vals), nc, nb)
	}
	if cap(vals) != len(vals) {
		vals = append(make([]float64, 0, len(vals)), vals...)
	}
	t.cmin, t.bmin, t.nc, t.nb = cmin, bmin, nc, nb
	t.vals = vals
	return nil
}

// valuesHint is the capacity to give a fresh values array: the size the
// bounds read so far call for, clamped to the most numbers n bytes can
// hold, so hostile bounds cannot force a large allocation. Zero when the
// bounds are not (yet) a valid range.
func valuesHint(cmin, cmax, bmin, bmax, n int) int {
	nc, nb := cmax-cmin+1, bmax-bmin+1
	if cmin < 0 || bmin < 0 || nc <= 0 || nb <= 0 {
		return 0
	}
	if limit := n/2 + 1; nc > limit || nb > limit || nc*nb > limit {
		return limit
	}
	return nc * nb
}

// tableScanner walks a table's JSON text. Each method skips leading white
// space and advances off past what it consumed.
type tableScanner struct {
	data []byte
	off  int
}

func (s *tableScanner) errorf(format string, args ...any) error {
	return fmt.Errorf("model: ResourceTable: %s at offset %d", fmt.Sprintf(format, args...), s.off)
}

func (s *tableScanner) skipSpace() {
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
func (s *tableScanner) consume(c byte) bool {
	if s.skipSpace(); s.off < len(s.data) && s.data[s.off] == c {
		s.off++
		return true
	}
	return false
}

// null consumes the literal null if it comes next.
func (s *tableScanner) null() bool {
	if s.skipSpace(); len(s.data)-s.off >= 4 && string(s.data[s.off:s.off+4]) == "null" {
		s.off += 4
		return true
	}
	return false
}

// key consumes a member name. An escaped name is unquoted by encoding/json.
func (s *tableScanner) key() ([]byte, error) {
	if !s.consume('"') {
		return nil, s.errorf("expected a member name")
	}
	start, escaped := s.off, false
	for ; s.off < len(s.data); s.off++ {
		switch c := s.data[s.off]; {
		case c == '"':
			s.off++
			if !escaped {
				return s.data[start : s.off-1], nil
			}
			var key string
			if err := json.Unmarshal(s.data[start-1:s.off], &key); err != nil {
				return nil, fmt.Errorf("model: ResourceTable member name: %w", err)
			}
			return []byte(key), nil
		case c == '\\':
			escaped = true
			s.off++ // the escaped byte; encoding/json validates the escape
		case c < 0x20:
			return nil, s.errorf("control character in a member name")
		}
	}
	return nil, s.errorf("unterminated member name")
}

// number consumes a JSON number and returns its text.
func (s *tableScanner) number() ([]byte, error) {
	s.skipSpace()
	d, i := s.data, s.off
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		return nil, s.errorf("expected a number")
	}
	if i < len(d) && d[i] == '.' {
		j := digits(d, i+1)
		if j == i+1 {
			return nil, s.errorf("expected a digit after the decimal point")
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			return nil, s.errorf("expected a digit in the exponent")
		}
		i = j
	}
	tok := d[s.off:i]
	s.off = i
	return tok, nil
}

// digits returns the index of the first non-digit in d at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// bound consumes an integer bound into *dst; null leaves *dst unchanged.
func (s *tableScanner) bound(dst *int) error {
	if s.null() {
		return nil
	}
	tok, err := s.number()
	if err != nil {
		return err
	}
	n, err := strconv.Atoi(string(tok))
	if err != nil {
		return s.errorf("bound %s is not an int", tok)
	}
	*dst = n
	return nil
}

// values consumes the values array, decoding into vals' backing array the
// way encoding/json reuses a slice: null is nil, [] a new empty slice, and
// a null element keeps what the array held at that index.
func (s *tableScanner) values(vals []float64, hint int) ([]float64, error) {
	if s.null() {
		return nil, nil
	}
	if !s.consume('[') {
		return nil, s.errorf("values must be an array")
	}
	if s.consume(']') {
		return []float64{}, nil
	}
	if vals == nil {
		vals = make([]float64, 0, hint)
	}
	for i := 0; ; i++ {
		if i < cap(vals) {
			vals = vals[:i+1]
		} else {
			vals = append(vals[:i], 0)
		}
		if !s.null() {
			tok, err := s.number()
			if err != nil {
				return nil, err
			}
			if vals[i], err = strconv.ParseFloat(string(tok), 64); err != nil {
				return nil, s.errorf("value %s is out of range", tok)
			}
		}
		switch {
		case s.consume(','):
		case s.consume(']'):
			return vals, nil
		default:
			return nil, s.errorf("expected ',' or ']' in values")
		}
	}
}

// EncodeSystem serializes a system to indented JSON.
func EncodeSystem(sys *System) ([]byte, error) {
	return json.MarshalIndent(sys, "", "  ")
}

// DecodeSystem parses a system from JSON and validates it.
func DecodeSystem(data []byte) (*System, error) {
	var sys System
	if err := json.Unmarshal(data, &sys); err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return &sys, nil
}

// EncodeAllocation serializes an allocation to indented JSON. Tasks inside
// VCPUs are embedded by value, so the encoding is self-contained (at the
// cost of duplicating task definitions that appear in the source system).
func EncodeAllocation(a *Allocation) ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// DecodeAllocation parses an allocation from JSON and checks its
// structural invariants.
func DecodeAllocation(data []byte) (*Allocation, error) {
	var a Allocation
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	if err := a.ValidateStructure(nil); err != nil {
		return nil, err
	}
	return &a, nil
}
