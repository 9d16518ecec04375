package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"log/slog"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNilLoggerIsNoOp(t *testing.T) {
	var l *Logger
	if l.Enabled() {
		t.Fatal("nil logger reports enabled")
	}
	l.Debug("x")
	l.Info("x")
	l.Warn("x")
	l.Error("x")
	if got := l.With("k", "v"); got != nil {
		t.Fatal("nil With returned non-nil")
	}
	if got := l.WithRun("r0001"); got != nil {
		t.Fatal("nil WithRun returned non-nil")
	}
	sl := l.Slog()
	if sl == nil {
		t.Fatal("nil logger Slog returned nil")
	}
	sl.Info("discarded") // must not panic
	if l.LogSlow(NewTrace(), "r0001", time.Second, time.Millisecond) {
		t.Fatal("nil logger claimed to emit")
	}
}

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		lvl  slog.Level
		on   bool
		fail bool
	}{
		{"debug", slog.LevelDebug, true, false},
		{"info", slog.LevelInfo, true, false},
		{"WARN", slog.LevelWarn, true, false},
		{"warning", slog.LevelWarn, true, false},
		{"error", slog.LevelError, true, false},
		{"off", 0, false, false},
		{"none", 0, false, false},
		{"loud", 0, false, true},
	}
	for _, c := range cases {
		lvl, on, err := ParseLevel(c.in)
		if c.fail {
			if err == nil {
				t.Errorf("ParseLevel(%q) accepted", c.in)
			}
			continue
		}
		if err != nil || lvl != c.lvl || on != c.on {
			t.Errorf("ParseLevel(%q) = %v,%v,%v", c.in, lvl, on, err)
		}
	}
}

func TestLogFlagsAndBuild(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cfg := LogFlags(fs, "warn")
	if err := fs.Parse([]string{"-log-level", "info", "-log-json"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	l, err := cfg.Build(&buf, slog.String("version", "test"))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	l.Info("hello", "answer", 42)
	l.Debug("dropped")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, buf.String())
	}
	answer, _ := rec["answer"].(float64)
	if rec["msg"] != "hello" || rec["version"] != "test" || math.Float64bits(answer) != math.Float64bits(42) {
		t.Fatalf("record = %v", rec)
	}
	if strings.Contains(buf.String(), "dropped") {
		t.Fatal("debug line emitted at info level")
	}
}

func TestBuildOffReturnsNil(t *testing.T) {
	cfg := &LogConfig{Level: "off"}
	l, err := cfg.Build(&bytes.Buffer{})
	if err != nil || l != nil {
		t.Fatalf("Build(off) = %v, %v", l, err)
	}
	bad := &LogConfig{Level: "shout"}
	if _, err := bad.Build(&bytes.Buffer{}); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestLogSlow(t *testing.T) {
	tr := NewTrace()
	sp := tr.StartSpan(StagePhase1)
	sp.End()
	var buf bytes.Buffer
	l, err := (&LogConfig{Level: "warn"}).Build(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Below threshold: silent.
	if l.LogSlow(tr, "r0001", 10*time.Millisecond, time.Second) {
		t.Fatal("fast run logged as slow")
	}
	if buf.Len() != 0 {
		t.Fatalf("unexpected output: %s", buf.String())
	}
	// Above threshold: one warn line with the breakdown.
	if !l.LogSlow(tr, "r0001", 2*time.Second, time.Second) {
		t.Fatal("slow run not logged")
	}
	out := buf.String()
	if !strings.Contains(out, "slow run") || !strings.Contains(out, "r0001") ||
		!strings.Contains(out, StagePhase1) {
		t.Fatalf("slow-run line = %s", out)
	}
	// Threshold 0 disables.
	buf.Reset()
	if l.LogSlow(tr, "r0001", time.Hour, 0) {
		t.Fatal("zero threshold logged")
	}
}
