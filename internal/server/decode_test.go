package server_test

// Tests of the one-pass submission decoder: the differential fuzz target
// against encoding/json (bench.DecodeSubmitReference), and the HTTP
// contract of the envelope rules — exact and unrepeated member names, no
// trailing data, no null VMs or tasks, and 413 for an oversized body — on
// both submission endpoints.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"vc2m/internal/bench"
	"vc2m/internal/model"
	"vc2m/internal/rngutil"
	"vc2m/internal/server"
	"vc2m/internal/workload"
)

// platformJSON is platform A's wire form.
const platformJSON = `{"name":"A","m":4,"c":20,"b":20,"cmin":2,"bmin":1}`

// decodeSeeds returns submission bodies shaped like the served traffic:
// the golden tests' generate and churn submissions, an e2ebench-style
// cold platform-A system, a churn request and a sweep.
func decodeSeeds(t testing.TB) [][]byte {
	t.Helper()
	sys, err := workload.Generate(workload.Config{Platform: model.PlatformA, TargetRefUtil: 0.3, Dist: workload.Uniform, NumVMs: 2}, rngutil.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, req := range []server.SubmitRequest{
		{Kind: server.KindRun, Mode: "flattening", GenSeed: 42, SimulateMs: 1100,
			Generate: &workload.Config{Platform: model.PlatformC, TargetRefUtil: 1.0, Dist: workload.BimodalLight, Benchmarks: []string{"canneal"}}},
		{Kind: server.KindRun, Mode: "existing", Seed: 3, GenSeed: 7, Metrics: true, Title: "cold é <x>", System: sys},
		{Churn: &server.ChurnSpec{BaseRun: "r1", Events: []server.ChurnEvent{
			{Arrivals: []*model.VM{churnVM("newA", 0.3)}},
			{Departures: []string{"vm0"}, Arrivals: []*model.VM{churnVM("newB", 0.25)}},
		}}},
		{Kind: server.KindSweep, Seed: 5, Sweep: &server.SweepSpec{Platform: "A", Dist: "uniform", UtilMin: 0.2, UtilMax: 2.0, UtilStep: 0.1, TasksetsPerPoint: 50, Parallel: 2}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// wireKeys is every member name of the submission's wire schema.
var wireKeys = map[string]bool{}

func init() {
	for _, k := range strings.Fields(`kind title mode seed system generate gen_seed simulate_ms metrics sweep churn
		platform vms name m c b cmin bmin id tasks max_vcpus vm period_ms wcet_ms benchmark cmax bmax values
		target_ref_util dist num_vms max_tasks benchmarks use_trace_profiles trace_ops
		base_run events arrivals departures util_min util_max util_step tasksets_per_point parallel`) {
		wireKeys[k] = true
	}
}

// exactDocument reports whether data is one valid JSON document whose
// member names are all exact wire keys, none repeated within an object:
// the inputs on which the one-pass decoder and encoding/json must agree.
func exactDocument(data []byte) bool {
	if !json.Valid(data) {
		return false
	}
	type frame struct {
		obj, wantKey bool
		seen         map[string]bool
	}
	var stack []*frame
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return true
		}
		if err != nil {
			return false
		}
		var top *frame
		if n := len(stack); n > 0 {
			top = stack[n-1]
		}
		switch {
		case tok == json.Delim('}') || tok == json.Delim(']'):
			stack = stack[:len(stack)-1]
			if n := len(stack); n > 0 && stack[n-1].obj {
				stack[n-1].wantKey = true
			}
		case top != nil && top.wantKey:
			key, _ := tok.(string)
			if !wireKeys[key] || top.seen[key] {
				return false
			}
			top.seen[key] = true
			top.wantKey = false
		case tok == json.Delim('{'):
			stack = append(stack, &frame{obj: true, wantKey: true, seen: map[string]bool{}})
		case tok == json.Delim('['):
			stack = append(stack, &frame{})
		case top != nil && top.obj:
			top.wantKey = true
		}
	}
}

// floatBits appends the bits of every float64 reachable from v, in
// traversal order, so two deep-equal values can be compared bit for bit
// (reflect.DeepEqual holds 0 and -0 equal).
func floatBits(v reflect.Value, bits []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			bits = floatBits(v.Elem(), bits)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			bits = floatBits(v.Field(i), bits)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			bits = floatBits(v.Index(i), bits)
		}
	case reflect.Float64:
		bits = append(bits, math.Float64bits(v.Float()))
	}
	return bits
}

// FuzzSubmitRequestJSON holds the one-pass decoder to encoding/json. It
// never panics; whatever it accepts, the reference accepts too, decoding
// to a deep-equal request with bit-identical floats, and Validate runs on
// it without panicking; and on documents with exact, unrepeated member
// names and no trailing data both give the same verdict.
func FuzzSubmitRequestJSON(f *testing.F) {
	for _, body := range decodeSeeds(f) {
		f.Add(body)
	}
	for _, s := range []string{
		`{"kind":"sweep","sweep":{"platform":"A"}} trailing`,
		`{"KIND":"sweep","SWEEP":{"platform":"A"}}`,
		`{"kind":"sweep","sweep":{"platform":"B"},"sweep":{"util_min":0.5}}`,
		`{"system":{"platform":` + platformJSON + `,"vms":[null]}}`,
		`{"system":{"platform":` + platformJSON + `,"vms":[{"id":"v","tasks":[null]}]}}`,
		`{"churn":{"events":[null,{"arrivals":[null]},{"departures":[null,"x"]}]}}`,
		`{"generate":{"platform":null,"dist":null,"target_ref_util":1}}`,
		`{"generate":{"dist":"uniform","target_ref_util":1}}`,
		`{"generate":{"dist":"light","target_ref_util":-0,"benchmarks":[]}}`,
		`{"kind":"sweep","sweep":{"platform":"A\ud800xé"}}`,
		"{\"title\":\"bad \xff utf8\",\"kind\":\"sweep\",\"sweep\":{\"platform\":\"A\"}}",
		`{"seed":1.0}`, `{"seed":9223372036854775808}`, `{"simulate_ms":1e400}`,
		`{"simulate_ms":-0,"metrics":null,"title":null,"system":null}`,
		`{"system":{"vms":[{"id":"v","tasks":[{"id":"t","period_ms":10,"wcet_ms":{"cmin":0,"cmax":0,"bmin":0,"bmax":0,"values":[1],"values":[2]}}]}]}}`,
		`{"system":{"vms":[{"id":"v","tasks":[{"id":"t","period_ms":10,"wcet_ms":null}]}]}}`,
		`{"system":{"vms":[]},"sweep":{}}`, `null`, ` {} `, `[]`, `{"title":"\u00`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got server.SubmitRequest
		gotErr := got.UnmarshalJSON(data)
		want, wantErr := bench.DecodeSubmitReference(data)
		if gotErr == nil {
			if wantErr != nil {
				t.Fatalf("accepted what encoding/json rejects (%v): %q", wantErr, data)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decodes differently from encoding/json: %q\none-pass:      %+v\nencoding/json: %+v", data, got, want)
			}
			if g, w := floatBits(reflect.ValueOf(got), nil), floatBits(reflect.ValueOf(want), nil); !reflect.DeepEqual(g, w) {
				t.Fatalf("float bits differ from encoding/json: %q", data)
			}
			_ = got.Validate()
		}
		if exactDocument(data) && (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("verdicts differ on %q: one-pass %v, encoding/json %v", data, gotErr, wantErr)
		}
	})
}

// TestDecodeSeedsRoundTrip: the seed bodies decode to exactly what was
// marshaled, and a decoded request shares no memory with its body.
func TestDecodeSeedsRoundTrip(t *testing.T) {
	for i, body := range decodeSeeds(t) {
		var req server.SubmitRequest
		if err := req.UnmarshalJSON(body); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, body) {
			t.Errorf("seed %d does not round-trip:\nin:  %.200s\nout: %.200s", i, body, again)
		}
		for j := range body {
			body[j] = 'x'
		}
		if after, _ := json.Marshal(req); !bytes.Equal(after, again) {
			t.Errorf("seed %d: decoded request changed when its body was overwritten", i)
		}
	}
}

// TestSubmitEnvelopeRulesOverHTTP: every strictness rule of the decoder
// is a 400 naming the offending member, path or offset, on POST /v1/runs
// and on the churn endpoint alike; a null VM or task is one of them, not
// a panic and a 500.
func TestSubmitEnvelopeRulesOverHTTP(t *testing.T) {
	_, hs := startHTTPServer(t, server.Config{Workers: 1})
	task := `{"id":"t","vm":"v","period_ms":100,"wcet_ms":` + string(mustJSON(t, model.ConstTable(model.PlatformA, 10))) + `}`
	system := `{"platform":` + platformJSON + `,"vms":[{"id":"v","tasks":[` + task + `]}]}`
	base := post(t, hs.URL+"/v1/runs", `{"system":`+system+`}`)
	if base.code != http.StatusAccepted {
		t.Fatalf("valid submission: %d %s", base.code, base.body)
	}
	var sub server.SubmitResponse
	if err := json.Unmarshal([]byte(base.body), &sub); err != nil {
		t.Fatal(err)
	}
	sweep := `"sweep":{"platform":"A","util_min":0.4,"util_max":0.4,"tasksets_per_point":1}`
	arrival := `{"id":"w","tasks":[` + strings.Replace(task, `"id":"t"`, `"id":"u"`, 1) + `]}`
	for _, tc := range []struct {
		name, path, body, want string
	}{
		{"trailing data", "/v1/runs", `{"kind":"sweep",` + sweep + `} trailing`, "trailing data"},
		{"case-variant key", "/v1/runs", `{"KIND":"sweep",` + sweep + `}`, `unknown member \"KIND\"`},
		{"case-variant nested key", "/v1/runs", `{"kind":"sweep","sweep":{"Platform":"A"}}`, `sweep: unknown member \"Platform\"`},
		{"duplicate member", "/v1/runs", `{"kind":"sweep","sweep":{"platform":"B"},` + sweep + `}`, `repeated member \"sweep\"`},
		{"duplicate table member", "/v1/runs", `{"system":` + strings.Replace(system, `"cmin":2,"cmax"`, `"cmin":2,"cmin":2,"cmax"`, 1) + `}`, `system.vms[0].tasks[0].wcet_ms: repeated member \"cmin\"`},
		{"unknown nested key", "/v1/runs", `{"system":` + strings.Replace(system, `"id":"v"`, `"id":"v","cpus":2`, 1) + `}`, `system.vms[0]: unknown member \"cpus\"`},
		{"null VM", "/v1/runs", `{"system":{"platform":` + platformJSON + `,"vms":[null]}}`, "system.vms[0]: null VM"},
		{"null task", "/v1/runs", `{"system":{"platform":` + platformJSON + `,"vms":[{"id":"v","tasks":[null]}]}}`, "system.vms[0].tasks[0]: null task"},
		{"churn trailing data", "/v1/runs/" + sub.ID + "/churn", `{"churn":{"events":[{"arrivals":[` + arrival + `]}]}}}`, "trailing data"},
		{"churn case-variant key", "/v1/runs/" + sub.ID + "/churn", `{"Churn":{"events":[{"arrivals":[` + arrival + `]}]}}`, `unknown member \"Churn\"`},
		{"churn duplicate member", "/v1/runs/" + sub.ID + "/churn", `{"churn":{"events":[{"departures":["v"],"departures":["v"]}]}}`, `churn.events[0]: repeated member \"departures\"`},
		{"churn null arrival", "/v1/runs/" + sub.ID + "/churn", `{"churn":{"events":[{"arrivals":[null]}]}}`, "churn.events[0].arrivals[0]: null VM"},
		{"churn null task", "/v1/runs/" + sub.ID + "/churn", `{"churn":{"events":[{"arrivals":[{"id":"w","tasks":[null]}]}]}}`, "churn.events[0].arrivals[0].tasks[0]: null task"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := post(t, hs.URL+tc.path, tc.body)
			if got.code != http.StatusBadRequest || !strings.Contains(got.body, tc.want) {
				t.Errorf("POST %s: %d %s, want 400 containing %s", tc.path, got.code, got.body, tc.want)
			}
		})
	}
	if got := post(t, hs.URL+"/v1/runs/"+sub.ID+"/churn", `{"churn":{"events":[{"arrivals":[`+arrival+`]}]}}`); got.code != http.StatusAccepted {
		t.Errorf("valid churn submission: %d %s", got.code, got.body)
	}
}

// TestOversizedBodyIs413: a body one byte over the limit is a 413, both
// when Content-Length announces it (answered before the body is read) and
// when it arrives chunked.
func TestOversizedBodyIs413(t *testing.T) {
	const limit = 32 << 20
	_, hs := startHTTPServer(t, server.Config{Workers: 1})

	conn, err := net.Dial("tcp", hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //vc2m:closeflush test connection; close errors are uninformative
	fmt.Fprintf(conn, "POST /v1/runs HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n{", limit+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("Content-Length over the limit: %d, want 413", resp.StatusCode)
	}

	prefix, suffix := `{"title":"`, `"}`
	body := io.MultiReader(strings.NewReader(prefix),
		io.LimitReader(repeatByte('a'), int64(limit+1-len(prefix)-len(suffix))), strings.NewReader(suffix))
	resp, err = http.Post(hs.URL+"/v1/runs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked body over the limit: %d %s, want 413", resp.StatusCode, msg)
	}
}

type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

type response struct {
	code int
	body string
}

func post(t *testing.T, url, body string) response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return response{resp.StatusCode, string(msg)}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
