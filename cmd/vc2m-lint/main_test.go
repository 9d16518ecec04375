package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFixtureModule lays out a throwaway module with one dirty package
// (a float compare and a suppressed one) and one clean test file, and
// returns its root.
func writeFixtureModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"dirty/dirty.go": `package dirty

func Bad(x float64) bool { return x == 1 }

func Excused(x float64) bool {
	return x == 0 //vc2m:floateq assigned sentinel, never computed
}
`,
		"dirty/dirty_test.go": `package dirty

import "testing"

func TestBad(t *testing.T) {
	if y := 2.0; y == 2 { // constant-folded: clean
		_ = Bad(y)
	}
	var z float64
	if z == 0.5 { // flagged only under -tests
		t.Fail()
	}
}
`,
	}
	for name, src := range files { //vc2m:ordered independent file writes; content is per-path
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// capture runs f with os.Stdout redirected to a pipe and returns what it
// wrote.
func capture(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 4096)
		for { //vc2m:ctxfree pipe drain; bounded by the writer closing
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				done <- sb.String()
				return
			}
		}
	}()
	defer func() {
		os.Stdout = orig
		_ = r.Close()
	}()
	f()
	_ = w.Close()
	return <-done
}

func TestRunExitCodes(t *testing.T) {
	root := writeFixtureModule(t)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"findings fail", []string{"-dir", root, "./..."}, 1},
		{"only a clean analyzer passes", []string{"-dir", root, "-only", "nondet", "./..."}, 0},
		{"unknown analyzer", []string{"-only", "bogus", "./..."}, 2},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2},
		{"all analyzers disabled", []string{"-nondet=false", "-timeunit=false", "-nilsafe=false",
			"-floateq=false", "-guardedby=false", "-ctxflow=false", "-closeflush=false",
			"-stagedrift=false", "./..."}, 2},
		{"list exits clean", []string{"-list"}, 0},
		{"dir outside any module", []string{"-dir", t.TempDir()}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var code int
			_ = capture(t, func() { code = run(tc.args) })
			if code != tc.code {
				t.Errorf("run(%v) = %d, want %d", tc.args, code, tc.code)
			}
		})
	}
}

func TestRunJSONOutput(t *testing.T) {
	root := writeFixtureModule(t)
	var code int
	out := capture(t, func() { code = run([]string{"-dir", root, "-json", "./..."}) })
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var res struct {
		Diagnostics []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
		Suppressed int `json:"suppressed"`
		Baselined  int `json:"baselined"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Analyzer != "floateq" {
		t.Fatalf("diagnostics = %+v, want one floateq finding", res.Diagnostics)
	}
	if res.Suppressed != 1 {
		t.Fatalf("suppressed = %d, want the excused compare", res.Suppressed)
	}
}

func TestRunTestsFlag(t *testing.T) {
	root := writeFixtureModule(t)
	var out string
	var code int
	out = capture(t, func() { code = run([]string{"-dir", root, "-tests", "./..."}) })
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(out, "dirty_test.go") {
		t.Fatalf("-tests did not surface the test-file finding:\n%s", out)
	}
	out = capture(t, func() { code = run([]string{"-dir", root, "./..."}) })
	if strings.Contains(out, "dirty_test.go") {
		t.Fatalf("test-file finding reported without -tests:\n%s", out)
	}
}

func TestRunBaselineRoundTrip(t *testing.T) {
	root := writeFixtureModule(t)
	baseline := filepath.Join(root, "baseline.json")
	var code int
	_ = capture(t, func() { code = run([]string{"-dir", root, "-write-baseline", baseline, "./..."}) })
	if code != 0 {
		t.Fatalf("-write-baseline exit = %d, want 0", code)
	}
	_ = capture(t, func() { code = run([]string{"-dir", root, "-baseline", baseline, "./..."}) })
	if code != 0 {
		t.Fatalf("baselined run exit = %d, want 0", code)
	}
	// A finding the baseline does not know about still fails.
	extra := filepath.Join(root, "dirty", "extra.go")
	if err := os.WriteFile(extra, []byte("package dirty\n\nfunc New(x float64) bool { return x == 3 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() { code = run([]string{"-dir", root, "-baseline", baseline, "./..."}) })
	if code != 1 || !strings.Contains(out, "extra.go") {
		t.Fatalf("new finding over baseline: exit %d, out:\n%s", code, out)
	}
}

// TestRunStaleBaselineFails: once a baselined finding is fixed, its entry
// is stale and the run fails until the baseline is tightened, so the
// baseline can only shrink.
func TestRunStaleBaselineFails(t *testing.T) {
	root := writeFixtureModule(t)
	baseline := filepath.Join(root, "baseline.json")
	var code int
	_ = capture(t, func() { code = run([]string{"-dir", root, "-write-baseline", baseline, "./..."}) })
	if code != 0 {
		t.Fatalf("-write-baseline exit = %d, want 0", code)
	}
	fixed := "package dirty\n\nfunc Bad(x float64) bool { return x > 1 }\n"
	if err := os.WriteFile(filepath.Join(root, "dirty", "dirty.go"), []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	_ = capture(t, func() { code = run([]string{"-dir", root, "-baseline", baseline, "./..."}) })
	if code != 1 {
		t.Fatalf("run with a stale baseline entry: exit %d, want 1", code)
	}
	_ = capture(t, func() { code = run([]string{"-dir", root, "-write-baseline", baseline, "./..."}) })
	_ = capture(t, func() { code = run([]string{"-dir", root, "-baseline", baseline, "./..."}) })
	if code != 0 {
		t.Fatalf("run with the tightened baseline: exit %d, want 0", code)
	}
}

func TestRunSARIFOutput(t *testing.T) {
	root := writeFixtureModule(t)
	sarif := filepath.Join(root, "lint.sarif")
	var code int
	_ = capture(t, func() { code = run([]string{"-dir", root, "-sarif", sarif, "./..."}) })
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	data, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF file is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || len(log.Runs[0].Results) != 1 {
		t.Fatalf("unexpected SARIF shape: version %q, %d runs", log.Version, len(log.Runs))
	}
}
