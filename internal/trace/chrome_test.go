package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenEvents is a small fixed stream covering every exported shape:
// two cores, two VCPUs on core 0, idle budget burn, a miss and a throttle.
func goldenEvents() []Event {
	return []Event{
		{Type: EvJobRelease, Time: 0, Core: 0, VCPU: "vm/flat-a", Task: "a", Deadline: 10000, Demand: 3000, WCET: 3000},
		{Type: EvExecSlice, Time: 3000, Core: 0, VCPU: "vm/flat-a", Task: "a", Start: 0, Budget: 0},
		{Type: EvExecSlice, Time: 5000, Core: 0, VCPU: "vm/wr-0", Task: "", Start: 3000, Budget: 1000},
		{Type: EvExecSlice, Time: 4000, Core: 1, VCPU: "vm2/flat-b", Task: "b", Start: 1000, Budget: 2000},
		{Type: EvThrottle, Time: 4500, Core: 1, VCPU: "vm2/flat-b", Task: "b"},
		{Type: EvBWReplenish, Time: 5000, Core: 1, Throttled: true},
		{Type: EvDeadlineMiss, Time: 10000, Core: 0, VCPU: "vm/flat-a", Task: "a", Deadline: 10000, Demand: 1200},
	}
}

// TestChromeGolden locks the exporter's exact output: the format is
// consumed by external tools (ui.perfetto.dev), so byte-level drift is a
// compatibility event that should be deliberate. Regenerate with
// `go test ./internal/trace -run TestChromeGolden -update`.
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exporter output drifted from golden file %s:\n%s", path, buf.String())
	}
}

// chromeDoc mirrors the Chrome trace-event JSON object model used for
// schema validation.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name  string `json:"name"`
		Phase string `json:"ph"`
		TS    *int64 `json:"ts"`
		Dur   int64  `json:"dur"`
		PID   *int   `json:"pid"`
		TID   *int   `json:"tid"`
		Scope string `json:"s"`
	} `json:"traceEvents"`
}

// TestChromeSchema validates the export as Chrome trace-event JSON: a
// well-formed document whose every record has a phase, timestamp (except
// metadata) and pid/tid, with duration events strictly positive.
func TestChromeSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	var sliceCount, missCount, throttleCount int
	for i, ev := range doc.TraceEvents {
		if ev.Phase == "" || ev.PID == nil || ev.TID == nil {
			t.Fatalf("event %d missing required fields: %+v", i, ev)
		}
		switch ev.Phase {
		case "X":
			sliceCount++
			if ev.Dur <= 0 {
				t.Errorf("event %d: non-positive duration %d", i, ev.Dur)
			}
			if ev.TS == nil {
				t.Errorf("event %d: duration event without ts", i)
			}
		case "i":
			if ev.Scope != "t" && ev.Scope != "p" {
				t.Errorf("event %d: instant scope %q", i, ev.Scope)
			}
			switch ev.Name {
			case "throttle":
				throttleCount++
			default:
				missCount++
			}
		case "M":
			// metadata: name only
		default:
			t.Errorf("event %d: unexpected phase %q", i, ev.Phase)
		}
	}
	if sliceCount != 3 || missCount != 1 || throttleCount != 1 {
		t.Errorf("exported %d slices, %d misses, %d throttles; want 3/1/1",
			sliceCount, missCount, throttleCount)
	}
}

// TestChromeEmpty: a writer closed without events still yields a valid,
// empty document.
func TestChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewChromeWriter(&buf).Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), `{"displayTimeUnit":"ms","traceEvents":[]}`+"\n"; got != want {
		t.Errorf("empty export = %q, want %q", got, want)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty export invalid: %v (%s)", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("empty export has %d events", len(doc.TraceEvents))
	}
}

// failAfter accepts n writes, then fails every later one.
type failAfter struct {
	n     int
	calls int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > f.n {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestChromeDocLatchesFirstError: after the first failed write the
// document writes nothing more, and Close reports that first error.
func TestChromeDocLatchesFirstError(t *testing.T) {
	w := &failAfter{n: 2} // the header and the first record
	doc := NewChromeDoc(w)
	for i := 0; i < 3; i++ {
		doc.Event(ChromeEvent{Name: "e", Phase: "X", Dur: 1})
	}
	err := doc.Close()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close = %v, want the write error", err)
	}
	if w.calls != 3 {
		t.Errorf("%d writes attempted, want 3 (nothing after the failure)", w.calls)
	}
	if err2 := doc.Close(); err2 != err {
		t.Errorf("second Close = %v, want the latched %v", err2, err)
	}
}
