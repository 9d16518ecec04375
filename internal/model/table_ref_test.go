package model

// The differential oracle for the ResourceTable codec: the decoder
// UnmarshalJSON replaced — json.Unmarshal into the five-member wire
// struct, then the bounds and count checks — and json.Marshal of that
// struct as the encoder's specification.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// refTableJSON is the wire form as encoding/json decodes and encodes it.
type refTableJSON struct {
	CMin   int       `json:"cmin"`
	CMax   int       `json:"cmax"`
	BMin   int       `json:"bmin"`
	BMax   int       `json:"bmax"`
	Values []float64 `json:"values"`
}

// refUnmarshalTable is the reference decoder, verbatim apart from
// returning the wire struct instead of filling a table.
func refUnmarshalTable(data []byte) (refTableJSON, error) {
	var w refTableJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return w, err
	}
	if w.CMax < w.CMin || w.BMax < w.BMin || w.CMin < 0 || w.BMin < 0 {
		return w, fmt.Errorf("model: invalid ResourceTable bounds c[%d,%d] b[%d,%d]",
			w.CMin, w.CMax, w.BMin, w.BMax)
	}
	nc, nb := w.CMax-w.CMin+1, w.BMax-w.BMin+1
	if len(w.Values) != nc*nb {
		return w, fmt.Errorf("model: ResourceTable has %d values, bounds need %d",
			len(w.Values), nc*nb)
	}
	return w, nil
}

// refRangeOverflows reports whether the reference accepted bounds whose
// table size wraps around int — a table with a negative or zero dimension,
// which the direct decoder rejects.
func refRangeOverflows(w refTableJSON) bool {
	nc, nb := w.CMax-w.CMin+1, w.BMax-w.BMin+1
	return nc <= 0 || nb <= 0 || nc > math.MaxInt/nb
}

// wireKeysOnly reports whether data is anything but a JSON object with a
// member outside the five exact wire keys: invalid JSON and non-objects
// count, since both decoders must reject them.
func wireKeysOnly(data []byte) bool {
	var members map[string]json.RawMessage
	if json.Unmarshal(data, &members) != nil {
		return true
	}
	for k := range members { //vc2m:ordered membership test only
		switch k {
		case "cmin", "cmax", "bmin", "bmax", "values":
		default:
			return false
		}
	}
	return true
}

// FuzzResourceTableJSON holds the direct table codec to encoding/json. The
// decoder never panics; it accepts only the exact wire keys; on inputs
// using only those it gives the reference's verdict (less the overflowing
// ranges) with bit-identical bounds and values; and whatever it accepts
// re-encodes to exactly json.Marshal's bytes, which decode back to the
// same table.
func FuzzResourceTableJSON(f *testing.F) {
	tab := NewResourceTable(2, 4, 1, 3)
	tab.Fill(func(c, b int) float64 { return float64(c) + float64(b)/7 })
	canonical, err := tab.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canonical)
	for _, s := range []string{
		` { "values" : [ 1.5 , 2 ] , "bmax" : 2 , "bmin" : 1 , "cmax" : 0 , "cmin" : 0 } `,
		`{"cmin":1,"cmax":1,"bmin":1,"bmax":1,"values":[2],"bogus":7,"CMAX":1}`,
		`{"cmin":1,"CMAX":1,"bmin":1,"bmax":1,"values":[2]}`,
		`{"cmin":1,"cmax":1,"bmin":1,"bmax":1,"values":[2]}`,
		`{"cmin":1,"cmax":1,"bmin":1,"bmax":1,"values":[1e400]}`,
		`{"cmin":1,"cmax":1,"bmin":1,"bmax":1,"values":[-0,5e-324,1e-400]}`,
		`{"cmin":1,"cmax":1,"bmin":1,"bmax":1,"values":2}`,
		`{"cmin":1,"cmax":1,"bmin":1,"bmax":1,"values":["2"]}`,
		`{"cmin":1,"cmax":1,"bmin":1,"bmax":1,"values":[1.0e+2]}`,
		`{"cmin":1.0,"cmax":1,"bmin":1,"bmax":1,"values":[2]}`,
		`{"cmin":null,"cmax":0,"bmin":0,"bmax":0,"values":[3]}`,
		`{"cmin":0,"cmax":0,"bmin":0,"bmax":1,"values":[1,2,3],"values":[null,null]}`,
		`{"cmin":0,"cmax":0,"bmin":0,"bmax":1,"values":[1,2],"values":null}`,
		`{"cmin":0,"cmax":0,"bmin":0,"bmax":1,"values":[1,2],"values":[],"values":[null,4]}`,
		`{"cmin":0,"cmax":9223372036854775807,"bmin":0,"bmax":1,"values":[]}`,
		`{"cmin":0,"cmax":4294967295,"bmin":0,"bmax":4294967295,"values":[]}`,
		`{"cmin":0,"cmax":0,"bmin":0,"bmax":0,"values":[01]}`,
		`{"cmin":0,"cmax":0,"bmin":0,"bmax":0,"values":[1.]} x`,
		`{}`, `null`, `[]`, `"nope"`, `{"cmin":`,
		// Repeated values, which the encoder copies from their predecessor.
		`{"cmin":0,"cmax":1,"bmin":0,"bmax":2,"values":[7,7,7,1.25,1.25,1.25]}`,
		`{"cmin":0,"cmax":0,"bmin":0,"bmax":5,"values":[0,-0,-0,0,0,-0]}`,
		`{"cmin":0,"cmax":1,"bmin":1,"bmax":2,"values":[1e-7,1e-7,1e21,1e21]}`,
		`{"cmin":0,"cmax":0,"bmin":0,"bmax":3,"values":[3,3,3,2.5]}`,
		`{"cmin":0,"cmax":0,"bmin":0,"bmax":3,"values":[2.5,3,3,3]}`,
		`{"cmin":0,"cmax":0,"bmin":0,"bmax":2,"values":[1.5,1.50,15e-1]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got ResourceTable
		gotErr := got.UnmarshalJSON(data)
		if gotErr == nil {
			checkAcceptedTable(t, &got)
		}
		if !wireKeysOnly(data) {
			if gotErr == nil {
				t.Fatalf("accepted a member outside the wire keys: %s", data)
			}
			return
		}
		want, wantErr := refUnmarshalTable(data)
		if wantErr == nil && refRangeOverflows(want) {
			if gotErr == nil {
				t.Fatalf("accepted an overflowing range: %s", data)
			}
			return
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("verdicts differ on %s: direct %v, encoding/json %v", data, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		cmin, cmax, bmin, bmax := got.Bounds()
		if cmin != want.CMin || cmax != want.CMax || bmin != want.BMin || bmax != want.BMax {
			t.Fatalf("bounds differ on %s: direct c[%d,%d] b[%d,%d], encoding/json c[%d,%d] b[%d,%d]",
				data, cmin, cmax, bmin, bmax, want.CMin, want.CMax, want.BMin, want.BMax)
		}
		for i, v := range want.Values {
			if math.Float64bits(got.vals[i]) != math.Float64bits(v) {
				t.Fatalf("value %d differs on %s: direct %v, encoding/json %v", i, data, got.vals[i], v)
			}
		}
	})
}

// checkAcceptedTable asserts what every decoded table must satisfy: exact
// length and capacity, and a re-encoding equal to json.Marshal's that
// decodes back to the same table.
func checkAcceptedTable(t *testing.T, tab *ResourceTable) {
	t.Helper()
	if tab.nc <= 0 || tab.nb <= 0 || len(tab.vals) != tab.nc*tab.nb || cap(tab.vals) != len(tab.vals) {
		t.Fatalf("accepted table has dimensions %d×%d, %d values, capacity %d",
			tab.nc, tab.nb, len(tab.vals), cap(tab.vals))
	}
	enc, err := tab.MarshalJSON()
	if err != nil {
		t.Fatalf("re-encoding an accepted table: %v", err)
	}
	cmin, cmax, bmin, bmax := tab.Bounds()
	spec, err := json.Marshal(refTableJSON{CMin: cmin, CMax: cmax, BMin: bmin, BMax: bmax, Values: tab.vals})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, spec) {
		t.Fatalf("MarshalJSON differs from encoding/json:\ndirect:        %s\nencoding/json: %s", enc, spec)
	}
	var back ResourceTable
	if err := back.UnmarshalJSON(enc); err != nil {
		t.Fatalf("re-encoded table does not decode: %v", err)
	}
	again, err := back.MarshalJSON()
	if err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("table round trip not byte-identical (%v):\nfirst:  %s\nsecond: %s", err, enc, again)
	}
}
