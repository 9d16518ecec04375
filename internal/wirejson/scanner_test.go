package wirejson

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"vc2m/internal/rngutil"
)

// FuzzScannerScalars holds the scalar readers to encoding/json: on any
// input, Float64, Int64 and String accept exactly the single JSON values
// of their type that json.Unmarshal accepts (null included), with
// bit-identical floats and identical strings.
func FuzzScannerScalars(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "1", "-1.5", "0.1", "1e22", "1e23", "9007199254740993", "9007199254740992.5",
		"123456789012345678901234", "1.00000000000000000000001", "0.000000000000000000000000001e20",
		"5e-324", "1e-400", "1e400", "-2.2250738585072011e-308", "12.345678901234567", "01", "1.", ".5",
		"+1", "1e", "1e+", "-", "0x10", "Inf", "NaN", "null", " 7 ", "9223372036854775808",
		`"plain"`, `"esc\né😀"`, `"\ud800"`, "\"\xff\"", `"bad \x"`, `"\u12"`, "\"ctl\x01\"",
		`"unterminated`, `"a" x`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		data := []byte(in)

		var got, want float64
		s := NewScanner(data)
		gotErr := s.Float64(&got)
		if gotErr == nil {
			gotErr = s.End()
		}
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Float64(%q): %v, encoding/json %v", in, gotErr, wantErr)
		}
		if gotErr == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Float64(%q) = %v, encoding/json %v", in, got, want)
		}

		var gotN, wantN int64
		s = NewScanner(data)
		gotErr = s.Int64(&gotN)
		if gotErr == nil {
			gotErr = s.End()
		}
		wantErr = json.Unmarshal(data, &wantN)
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && gotN != wantN {
			t.Fatalf("Int64(%q) = %d, %v; encoding/json %d, %v", in, gotN, gotErr, wantN, wantErr)
		}

		var gotS, wantS string
		s = NewScanner(data)
		gotErr = s.String(&gotS)
		if gotErr == nil {
			gotErr = s.End()
		}
		wantErr = json.Unmarshal(data, &wantS)
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && gotS != wantS {
			t.Fatalf("String(%q) = %q, %v; encoding/json %q, %v", in, gotS, gotErr, wantS, wantErr)
		}
	})
}

// TestFloat64ExactPath: the strconv-free path reads every number of up
// to 19 digits with an exponent within ±19, covering the WCET tables'
// shortest-form values, and every number of up to 53 bits with an
// exponent from -22 to -1, and rounds exactly as ParseFloat does, ties
// and halfway cases included.
func TestFloat64ExactPath(t *testing.T) {
	check := func(in string) bool {
		t.Helper()
		var n decimalNumber
		if err := NewScanner([]byte(in)).decimal(&n); err != nil {
			t.Fatal(err)
		}
		f, ok := n.exact()
		want, _ := strconv.ParseFloat(in, 64)
		if ok && math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("exact(%s) = %v (%#x), ParseFloat %v (%#x)", in, f, math.Float64bits(f), want, math.Float64bits(want))
		}
		return ok
	}
	for _, in := range []string{
		"111.5072002246304", "12.345678901234567", "0.5", "-3", "-0", "0e5", "1e19", "1e-19",
		"9007199254740993", "9007199254740995", "9999999999999999999e-19",
		"9999999999999999999", "0.1", "0.30000000000000004", "123456789e19", "1e-20", "-5e-22",
	} {
		if !check(in) {
			t.Errorf("exact(%s) left the number to strconv", in)
		}
	}
	for _, in := range []string{"1e20", "1e-23", "12345678901234567890", "18446744073709551615e-5", "0.00000000000000000001"} {
		if check(in) {
			t.Errorf("exact(%s) took the exact path", in)
		}
	}
	// At the edges of Clinger's fast path: mant below 2^53 divides by
	// 10^22 at most; 2^53 and above takes the integer path within ±19.
	for _, tc := range []struct {
		exp  int
		want [3]bool // for mant 2^53-1, 2^53, 2^53+1
	}{{-22, [3]bool{true, false, false}}, {-23, [3]bool{}}, {-1, [3]bool{true, true, true}}, {0, [3]bool{true, true, true}}} {
		for j, mant := range []uint64{1<<53 - 1, 1 << 53, 1<<53 + 1} {
			in := strconv.FormatUint(mant, 10) + "e" + strconv.Itoa(tc.exp)
			if got := check(in); got != tc.want[j] {
				t.Errorf("exact(%s) took the exact path: %v, want %v", in, got, tc.want[j])
			}
		}
	}
	rng := rngutil.New(1)
	for i := 0; i < 200000; i++ {
		digits := 1 + rng.Intn(19)
		mant := uint64(rng.Int63()) % pow10[digits-1] * 10
		mant += uint64(rng.Intn(10))
		if i%3 == 0 { // 54 significant bits, the last set: halfway between two floats
			mant = (uint64(rng.Int63())>>9 | 1<<53 | 1) << uint(rng.Intn(10))
		}
		check(strconv.FormatUint(mant, 10) + "e" + strconv.Itoa(rng.Intn(44)-23))
	}
}

func TestObjectRules(t *testing.T) {
	keys := []string{"a", "bb"}
	decode := func(in string, repeatOK bool) (map[string]int, error) {
		s := NewScanner([]byte(in))
		got := map[string]int{}
		member := func(key string) error {
			var n int
			err := s.Int(&n)
			got[key] = n
			return err
		}
		object := s.Object
		if repeatOK {
			object = s.ObjectRepeat
		}
		_, err := object(keys, member)
		if err == nil {
			err = s.End()
		}
		return got, err
	}
	for _, tc := range []struct {
		in, wantErr string
		repeatOK    bool
	}{
		{in: ` { "a" : 1 , "bb" : 2 } `},
		{in: `{"a":1,"a":2}`, wantErr: `repeated member "a"`},
		{in: `{"a":1,"a":2}`, repeatOK: true},
		{in: `{"A":1}`, wantErr: `unknown member "A" (member names are case-sensitive: want "a")`},
		{in: `{"c":1}`, wantErr: `unknown member "c"`},
		{in: `{"bb":1}`},
		{in: `{"bb":[1]}`, wantErr: "bb: expected a number"},
		{in: `{"a":1}{}`, wantErr: "trailing data"},
		{in: `{"a":1,}`, wantErr: "expected a string"},
		{in: `{"a" 1}`, wantErr: "expected ':'"},
		{in: `{"a":1 "bb":2}`, wantErr: "expected ',' or '}'"},
		{in: `{"a":nul}`, wantErr: "a: expected a number"},
	} {
		_, err := decode(tc.in, tc.repeatOK)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.in, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.in, err, tc.wantErr)
		}
	}
	if got, _ := decode(`{"a":1,"a":null}`, true); got["a"] != 0 {
		t.Errorf("null member decoded as %d into a fresh int", got["a"])
	}
}

func TestArrayPaths(t *testing.T) {
	s := NewScanner([]byte(`[[1,2],[3,true]]`))
	_, err := s.Array(func(int) error {
		_, err := s.Array(func(int) error {
			var n int
			return s.Int(&n)
		})
		return err
	})
	if err == nil || !strings.HasPrefix(err.Error(), "[1][1]: expected a number") {
		t.Errorf("nested array error %v, want one at path [1][1]", err)
	}
	s = NewScanner([]byte(`null`))
	if present, err := s.Array(func(int) error { return nil }); present || err != nil {
		t.Errorf("null array: present %v, %v", present, err)
	}
}

// digitsRef is the byte-at-a-time digit reader digits replaces.
func digitsRef(mant uint64, d []byte, i int) (uint64, int) {
	for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
		mant = mant*10 + uint64(d[i]-'0')
	}
	return mant, i
}

// TestDigitsLanes holds the eight-byte digit reader to digitsRef with
// every byte value in every lane of the first two words after a digit
// run, followed by digits, bytes that carry when 6 is added, or control
// bytes, and with every buffer end from 0 to 17 bytes.
func TestDigitsLanes(t *testing.T) {
	check := func(d []byte, i int) {
		t.Helper()
		n := decimalNumber{mant: 42}
		got := n.digits(d, i)
		wantMant, want := digitsRef(42, d, i)
		if got != want || n.mant != wantMant {
			t.Fatalf("digits(%q, %d) = %d, mant %d; want %d, mant %d", d, i, got, n.mant, want, wantMant)
		}
	}
	const run = "98765432109876543"
	for lead := 0; lead <= 16; lead++ {
		for _, tail := range []string{"12345678", "\xfa\xff\xfb\xfc\xfd\xfe\xff\xff", "\x00\x01\x02\x03\x04\x05\x06\x07"} {
			for v := 0; v < 256; v++ {
				d := append(append([]byte("-"+run[:lead]), byte(v)), tail...)
				check(d, 1)
			}
		}
	}
	for end := 0; end <= 17; end++ {
		check([]byte(run[:end]), 0)
		check([]byte("0."+run[:end]), 2)
	}
}

// TestFloat64sReuse checks the repeated-value shortcut against
// encoding/json on arrays where the next number starts with the previous
// one's bytes but is a different number, is not a number, or is the
// same number, decoded into a slice whose old values a null keeps.
func TestFloat64sReuse(t *testing.T) {
	for _, tc := range []struct {
		in, path string // path is the error's member path
	}{
		{in: "[1.5,1.55]"},
		{in: "[0,01]"},
		{in: "[1.5,1.5e3]"},
		{in: "[7,7.]", path: "[1]"},
		{in: "[2,null,2]"},
		{in: "[-1,-1]"},
		{in: "[3 , 3]"},
		{in: "[1e400,1e400]", path: "[0]"},
		{in: "[5,5e]", path: "[1]"},
		{in: "[8,8,8x]"},
	} {
		got, _, gotErr := NewScanner([]byte(tc.in)).Float64s([]float64{9, 9, 9}, 0)
		want := []float64{9, 9, 9}
		wantErr := json.Unmarshal([]byte(tc.in), &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("Float64s(%s): %v, encoding/json %v", tc.in, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			if e, ok := gotErr.(*Error); !ok || e.Path != tc.path {
				t.Errorf("Float64s(%s): error %v, want one at path %q", tc.in, gotErr, tc.path)
			}
			continue
		}
		if len(got) != len(want) {
			t.Errorf("Float64s(%s) = %v, encoding/json %v", tc.in, got, want)
			continue
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("Float64s(%s) = %v, encoding/json %v", tc.in, got, want)
				break
			}
		}
	}
}

// FuzzFloat64s holds the array kernel to encoding/json: on any input,
// decoding into a slice of length n and capacity n+spare, pre-filled
// past its length, Float64s followed by End accepts exactly what
// json.Unmarshal into an identical []float64 accepts, and the results
// agree in nil-ness, length and the bits of every element, those a null
// kept included.
func FuzzFloat64s(f *testing.F) {
	for _, s := range []string{
		"[]", "null", " [ ] ", "[1]", "[1,2,3]", "[null]", "[2,null,2]", "[1.5,1.55]", "[0,01]",
		"[1.5,1.5e3]", "[7,7.]", "[-1,-1]", "[3 , 3]", "[1e400,1e400]", "[121.61448714212153,121.61448714212153]",
		"[1,]", "[,1]", "[1 2]", "[\"1\"]", "[true]", "[[1]]", "[1]x", "{}", "[12345678901234567,1.2345678901234567e-5]",
	} {
		f.Add(s, uint8(0), uint8(0))
		f.Add(s, uint8(2), uint8(3))
	}
	f.Fuzz(func(t *testing.T, in string, n, spare uint8) {
		fill := func() []float64 {
			if n == 0 && spare == 0 {
				return nil
			}
			backing := make([]float64, int(n%8)+int(spare%8))
			for i := range backing {
				backing[i] = float64(i) + 0.25
			}
			return backing[:n%8]
		}
		s := NewScanner([]byte(in))
		got, _, gotErr := s.Float64s(fill(), int(n))
		if gotErr == nil {
			gotErr = s.End()
		}
		want := fill()
		wantErr := json.Unmarshal([]byte(in), &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Float64s(%q): %v, encoding/json %v", in, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("Float64s(%q) = %#v, encoding/json %#v", in, got, want)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("Float64s(%q)[%d] = %v, encoding/json %v", in, i, got[i], want[i])
			}
		}
	})
}
