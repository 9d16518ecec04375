package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain is the defer-safe driver: 0 on success, 1 when the run failed or
// any output check failed (the result line is still printed), 2 on bad
// flags.
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all four, reps interleaved round-robin)")
	seed := fs.Int64("seed", 1, "input seed: the same seed generates the same requests")
	seconds := fs.Float64("seconds", 25, "time budget for each workload's reps")
	trace := fs.Int("trace", 0, "1 adds a traced served rep and an in-process replay per workload and prints the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the spans to this file as a Chrome trace (open in ui.perfetto.dev)")
	out := fs.String("out", "", "write the detailed report (per-rep raw values, probes, host fingerprint) to this file")
	check := fs.String("check", "", "with -compare: the parent's detailed report")
	compare := fs.String("compare", "", "compare this detailed report against -check, per (workload, metric); runs nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" || *check != "" {
		if *compare == "" || *check == "" {
			fmt.Fprintln(stderr, "e2ebench: -check and -compare go together")
			return 2
		}
		if err := compareFiles(stdout, *check, *compare); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "e2ebench: -trace takes 0 or 1")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, log: stderr}
	for _, w := range workloads {
		if *name == "" || w.name == *name {
			o.workloads = append(o.workloads, w)
		}
	}
	if len(o.workloads) == 0 {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", *name)
		return 2
	}

	rep, tr, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if *out != "" {
		if err := writeJSONFile(*out, rep); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
	}
	if *spans != "" && tr != nil {
		if err := writeSpans(*spans, tr.WriteChrome); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
	}
	printSummary(stderr, rep)
	line, failed := resultLine(rep)
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// result is the final stdout line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// resultLine folds the report into the result line: the end-to-end
// metrics, or the per-layer ones on a traced run. With more than one
// workload each name is prefixed by "<workload>/".
func resultLine(rep *benchReport) (result, bool) {
	res := result{Metrics: map[string]value{}}
	for _, wr := range rep.Workloads {
		res.Attempted += wr.Attempted
		res.Failed += wr.Failed
		ms := wr.Metrics
		if rep.Trace {
			ms = wr.Layers
		}
		for k, v := range ms { //vc2m:ordered map-to-map copy
			if len(rep.Workloads) > 1 {
				k = wr.Name + "/" + k
			}
			res.Metrics[k] = v
		}
	}
	res.Correct = res.Failed == 0
	return res, !res.Correct
}

func printSummary(w io.Writer, rep *benchReport) {
	h := rep.Host
	fmt.Fprintf(w, "host: %s %s/%s, %d CPUs, GOMAXPROCS %d, %q, commit %s, probe ref %.1f ms\n",
		h.Go, h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.Commit, h.ProbeRefMs)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "%s (%s loop, %d clients, %d reps; %d attempted, %d failed)\n",
			wr.Name, wr.Loop, wr.Clients, len(wr.Reps), wr.Attempted, wr.Failed)
		for _, spec := range endToEnd {
			fmt.Fprintf(w, "  %-18s %14.4f %-5s (raw %.4f)\n", spec.name, wr.Metrics[spec.name].Value, spec.unit, wr.Raw[spec.name])
		}
		for _, spec := range perLayer {
			if v, ok := wr.Layers[spec.name]; ok {
				fmt.Fprintf(w, "  %-48s %14.4f %s\n", spec.name, v.Value, spec.unit)
			}
		}
		fmt.Fprintf(w, "  sample digest %s\n", wr.SampleDigest)
		fmt.Fprintf(w, "  sample counters %s\n", formatCounters(wr.SampleCounters))
		if wr.ReplayDigest != "" {
			fmt.Fprintf(w, "  replay digest %s\n", wr.ReplayDigest)
			fmt.Fprintf(w, "  replay counters %s\n", formatCounters(wr.ReplayCounters))
		}
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAIL %s\n", f)
		}
	}
}

func formatCounters(m map[string]int64) string {
	var b strings.Builder
	for i, k := range sortedKeys(m) {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", k, m[k])
	}
	return b.String()
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeSpans(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
