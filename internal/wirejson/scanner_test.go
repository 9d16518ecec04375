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
// shortest-form values, and rounds exactly as ParseFloat does, ties and
// halfway cases included.
func TestFloat64ExactPath(t *testing.T) {
	check := func(in string) bool {
		t.Helper()
		n, err := NewScanner([]byte(in)).decimal()
		if err != nil {
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
		"9999999999999999999", "0.1", "0.30000000000000004", "123456789e19",
	} {
		if !check(in) {
			t.Errorf("exact(%s) left the number to strconv", in)
		}
	}
	for _, in := range []string{"1e20", "1e-20", "12345678901234567890", "18446744073709551615e-5", "0.00000000000000000001"} {
		if check(in) {
			t.Errorf("exact(%s) took the exact path", in)
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
		check(strconv.FormatUint(mant, 10) + "e" + strconv.Itoa(rng.Intn(41)-20))
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
