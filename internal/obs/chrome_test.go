package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// goldenTrace builds a fixed span tree with explicit start and end times:
// two roots (each its own track), nested children with attributes, a
// zero-length span (exported with dur 1), and an orphan whose parent
// never ended (exported as its own root). The trace carries a W3C
// context, so the document opens with the process metadata record.
func goldenTrace() *Trace {
	tr := NewTraceWith(TraceContext{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7", Sampled: true})
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(s *Span, startUs, endUs int64) *Span {
		s.start = t0.Add(time.Duration(startUs) * time.Microsecond)
		s.mu.Lock()
		s.end = t0.Add(time.Duration(endUs) * time.Microsecond)
		s.ended = true
		s.mu.Unlock()
		return s
	}
	run := at(tr.StartSpan(StageRun), 0, 5000)
	run.SetAttr("mode", "existing")
	vm := at(run.Child(StageVMLevel), 10, 1200)
	vm.SetInt("vms", 2)
	at(vm.Child(StageCSADerive), 20, 20)
	hyper := at(run.Child(StageHyper), 1200, 4800)
	hyper.SetFloat("util", 1.25)
	at(hyper.Child(StagePhase1), 1210, 2000)
	open := hyper.Child(StagePhase2) // never ended
	orphan := at(open.Child(StagePhase3), 2100, 2500)
	orphan.SetAttr("note", `quote " and <tag>`)
	at(tr.StartSpan(StageHypersim), 6000, 9000)
	return tr
}

// TestWriteChromeGolden locks the span exporter's exact bytes, as
// TestChromeGolden does for the flight recorder's. Regenerate with
// VC2M_UPDATE_GOLDEN=1 after an intentional format change.
func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_spans_golden.json")
	if os.Getenv("VC2M_UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (set VC2M_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("span export drifted from golden file %s:\n%s", path, buf.String())
	}

	var empty strings.Builder
	if err := (*Trace)(nil).WriteChrome(&empty); err != nil {
		t.Fatal(err)
	}
	if got, want := empty.String(), `{"displayTimeUnit":"ms","traceEvents":[]}`+"\n"; got != want {
		t.Errorf("empty export = %q, want %q", got, want)
	}
}
