package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// runOK drives run with args and returns its stdout, failing the test on
// a non-zero exit.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("vc2m-paper %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// reportTitle matches the report's title member.
var reportTitle = regexp.MustCompile(`"title": "[^"]*"`)

// TestSweepGolden checks that the sweep subcommand reproduces every output
// of the Figure 2/3 command it replaces byte for byte, at any -parallel.
// Only the report title names the new command.
func TestSweepGolden(t *testing.T) {
	const newTitle = `"title": "vc2m-paper sweep A/uniform (seed 1)"`
	oldTitle := reportTitle.FindString(golden(t, "sweep.report.json"))
	for _, parallel := range []string{"1", "2"} {
		t.Run("parallel="+parallel, func(t *testing.T) {
			dir := t.TempDir()
			path := func(name string) string { return filepath.Join(dir, name) }
			stdout := runOK(t, "sweep", "-min", "0.4", "-max", "1.2", "-step", "0.4", "-tasksets", "4",
				"-quiet", "-metrics", "-provenance", "-plot", "-parallel", parallel,
				"-csv", path("sweep.csv"), "-metrics-csv", path("sweep-metrics.csv"),
				"-report-out", path("sweep.report.json"))
			if stdout != golden(t, "sweep.stdout") {
				t.Errorf("stdout differs from testdata/sweep.stdout:\n%s", stdout)
			}
			for _, name := range []string{"sweep.csv", "sweep-metrics.csv"} {
				if got := readFile(t, path(name)); got != golden(t, name) {
					t.Errorf("%s differs from the golden:\n%s", name, got)
				}
			}
			rep := readFile(t, path("sweep.report.json"))
			if strings.Count(rep, newTitle) != 1 {
				t.Fatalf("report does not carry the title %s once", newTitle)
			}
			if strings.Replace(rep, newTitle, oldTitle, 1) != golden(t, "sweep.report.json") {
				t.Error("report differs from testdata/sweep.report.json beyond its title")
			}
		})
	}
}

func TestIsolationGolden(t *testing.T) {
	if got := runOK(t, "isolation", "-ops", "20000", "-benchmark", "canneal"); got != golden(t, "isolation.stdout") {
		t.Errorf("stdout differs from testdata/isolation.stdout:\n%s", got)
	}
}

// wallClock matches a measured time cell and the padding after it. Row
// and column labels, counts and the %.2f utilizations are left alone.
var wallClock = regexp.MustCompile(`\d+\.\d{3,} *`)

// TestTimedGoldens checks the wall-clock commands: their timing cells
// vary run to run, so those are masked and everything else — the labels,
// the throttle-event line, the metrics block — must match byte for byte.
func TestTimedGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"tables.stdout", []string{"tables", "-horizon", "500"}},
		{"fig4.stdout", []string{"fig4", "-min", "0.4", "-max", "0.8", "-step", "0.4", "-tasksets", "3", "-metrics"}},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			got := wallClock.ReplaceAllString(runOK(t, tc.args...), "#")
			want := wallClock.ReplaceAllString(golden(t, tc.golden), "#")
			if got != want {
				t.Errorf("output differs from testdata/%s outside its timing cells:\n%s", tc.golden, got)
			}
		})
	}
}

func TestUnknownSubcommand(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"fig2"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown subcommand "fig2"`) || !strings.Contains(stderr.String(), "isolation") {
		t.Errorf("stderr lacks the error or the usage:\n%s", stderr.String())
	}
}

// TestFlags pins each mode's flag names and defaults to those of the
// command it replaces.
func TestFlags(t *testing.T) {
	cpus := strconv.Itoa(runtime.NumCPU())
	logFlags := "log-json=false log-level=warn seed=1"
	want := map[string]string{
		"": logFlags + " cpuprofile= memprofile= out=results parallel=" + cpus +
			" provenance=false report-out= server= step=0.05 tasksets=50",
		"sweep": logFlags + " cpuprofile= csv= dist=uniform max=2 memprofile= metrics=false metrics-csv=" +
			" min=0.1 parallel=" + cpus + " platform=A plot=false provenance=false quiet=false report-out= step=0.1 tasksets=10",
		"fig4":      logFlags + " max=2 metrics=false metrics-csv= min=0.2 platform=A step=0.2 tasksets=10",
		"tables":    logFlags + " csv= horizon=2000 vcpus=24,96",
		"isolation": logFlags + " benchmark= cores=4 ops=100000",
	}
	modes := map[string]mode{"": fullMode}
	for _, sc := range subcommands {
		modes[sc.name] = sc.mode
	}
	if len(modes) != len(want) {
		t.Fatalf("%d modes, want %d", len(modes), len(want))
	}
	for _, name := range []string{"", "sweep", "fig4", "tables", "isolation"} {
		c := newCommand(name, &bytes.Buffer{}, &bytes.Buffer{})
		modes[name](c)
		var got []string
		c.fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
		exp := strings.Fields(want[name])
		sort.Strings(got)
		sort.Strings(exp)
		if strings.Join(got, " ") != strings.Join(exp, " ") {
			t.Errorf("mode %q flags:\n got %s\nwant %s", name, strings.Join(got, " "), strings.Join(exp, " "))
		}
	}
}
