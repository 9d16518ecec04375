package wirejson

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `quote " and \ backslash`, "<script>&amp;</script>",
		"\x00\x01\x08\x09\x0a\x0c\x0d\x1f\x7f", "café \U0001F600",
		"\xff", "a\xe2\x80", "  ", "\xed\xa0\x80", // surrogate half
	} {
		spec, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(spec) {
			t.Errorf("AppendString(%q) = %s, encoding/json %s", s, got, spec)
		}
	}
}

// FuzzAppendString holds AppendString to json.Marshal. The seeds put one
// byte of every class the word test flags at each offset 0-16 of plain
// strings of length 0-24, so the flag lands in every lane of the first
// words, in the tail after them and on a word boundary; and multi-byte,
// U+2028/U+2029 and invalid sequences across the boundary at 8.
func FuzzAppendString(f *testing.F) {
	for _, c := range []string{
		"\x00", "\x1f", "\n", " ", "\x7f", `"`, `\`, "<", ">", "&", "\x80", "\xff",
		"é", "€", "\U0001F600", "\u2028", "\u2029", "\xed\xa0\x80",
	} {
		for n := 0; n <= 24; n++ {
			for off := 0; off <= 16 && off <= n; off++ {
				f.Add(strings.Repeat("a", off) + c + strings.Repeat("b", n-off))
			}
		}
	}
	for _, c := range []string{"é", "€", "\U0001F600", "\u2028", "\xe2\x80", "\xf0\x9f\x98"} {
		for off := 4; off <= 8; off++ {
			f.Add(strings.Repeat("x", off) + c + "yyyyyyyyyy")
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got[1:]) != string(spec) || got[0] != 'x' {
			t.Fatalf("AppendString(%q) = %s, encoding/json %s", s, got[1:], spec)
		}
	})
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-6, 9.999999999999999e-7, 1e-7, -1.5e-9,
		1e20, 999999999999999900000, 1e21, 1.2345e22, 5e-324, math.MaxFloat64, -math.MaxFloat64,
	} {
		spec, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil || string(got) != string(spec) {
			t.Errorf("AppendFloat(%v) = %s, %v; encoding/json %s", f, got, err, spec)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, specErr := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) || string(got) != "x" || specErr == nil || err.Error() != specErr.Error() {
			t.Errorf("AppendFloat(%v) = %q, %v; encoding/json fails with %v", f, got, err, specErr)
		}
	}
}

// FuzzAppendFloats holds AppendFloats to json.Marshal of a []float64:
// the same bytes, or the same error and a nil result. The values are
// picked from a few fuzzed ones by a fuzzed index pattern, so runs of one
// value, and of values with equal bits next to values equal as floats,
// are common. With null set an empty pick is the nil slice.
func FuzzAppendFloats(f *testing.F) {
	negZero, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	for _, seed := range []struct {
		vals    []float64
		pattern []byte
		null    bool
	}{
		{nil, nil, true},
		{nil, nil, false},
		{[]float64{1.5}, []byte{0}, false},
		{[]float64{2.25, 7}, []byte{0, 0, 0, 1}, false}, // a run at the start
		{[]float64{2.25, 7}, []byte{1, 0, 0, 0}, false}, // a run at the end
		{[]float64{3, 121.61448714212153}, []byte{0, 1, 1, 0, 0, 1}, false},
		{[]float64{0, negZero}, []byte{0, 1, 0, 1, 1, 0}, false}, // 0 next to -0, both orders
		{[]float64{negZero, 0}, []byte{0, 0, 1, 1}, false},
		{[]float64{1e-7, 1e21, 5e-324}, []byte{0, 0, 1, 1, 2, 2}, false}, // e forms repeated
		{[]float64{4, nan}, []byte{0, 0, 0, 1}, false},                   // NaN after a run
		{[]float64{4, inf}, []byte{0, 0, 1, 1}, false},
		{[]float64{4, -inf}, []byte{0, 0, 0, 1, 0}, false},
		{[]float64{nan}, []byte{0, 0}, false},
	} {
		data := make([]byte, 0, 8*len(seed.vals))
		for _, v := range seed.vals {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		f.Add(data, seed.pattern, seed.null)
	}
	f.Fuzz(func(t *testing.T, data, pattern []byte, null bool) {
		var pool []float64
		for ; len(data) >= 8; data = data[8:] {
			pool = append(pool, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		var vals []float64
		for _, p := range pattern {
			if len(pool) > 0 {
				vals = append(vals, pool[int(p)%len(pool)])
			}
		}
		if vals == nil && !null {
			vals = []float64{}
		}
		spec, specErr := json.Marshal(vals)
		got, err := AppendFloats([]byte("x"), vals)
		if specErr != nil {
			var uv *json.UnsupportedValueError
			if !errors.As(err, &uv) || got != nil || err.Error() != specErr.Error() {
				t.Fatalf("AppendFloats(%v) = %q, %v; encoding/json fails with %v", vals, got, err, specErr)
			}
			return
		}
		if err != nil || string(got) != "x"+string(spec) {
			t.Fatalf("AppendFloats(%v) = %s, %v; encoding/json %s", vals, got, err, spec)
		}
	})
}
