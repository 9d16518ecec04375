// vc2m-sim is the end-to-end driver: it loads (or generates) a system,
// runs a vC2M allocation strategy on it, optionally executes the result on
// the hypervisor simulator, and reports the outcome. Systems and
// allocations are exchanged as JSON, so allocations can be produced once
// and inspected or replayed later.
//
// With -server it submits the run to a vc2m-server daemon instead of
// executing in-process; the fetched report is byte-identical to the local
// run with the same seeds.
//
// Examples:
//
//	vc2m-sim -gen-util 1.2 -gen-seed 7 -dump-system system.json
//	vc2m-sim -in system.json -mode flattening -out alloc.json
//	vc2m-sim -gen-util 1.0 -mode overheadfree -simulate 2200
//	vc2m-sim -server http://127.0.0.1:8700 -gen-util 1.0 -report-out run.json
//	vc2m-sim -gen-util 1.2 -mode existing -spans -spans-out spans.json
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vc2m"
	"vc2m/client"
	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/profutil"
	"vc2m/internal/report"
	"vc2m/internal/server"
	"vc2m/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the defer-safe driver: every exit path unwinds through it, so
// deferred sink/file closers always execute and no partial output is
// silently truncated.
func run(args []string) int {
	fs := flag.NewFlagSet("vc2m-sim", flag.ContinueOnError)
	in := fs.String("in", "", "input system JSON file (omit to generate a workload)")
	genUtil := fs.Float64("gen-util", 1.0, "generated workload's target reference utilization")
	genDist := fs.String("gen-dist", "uniform", "generated workload's distribution: uniform, light, medium, heavy")
	genSeed := fs.Int64("gen-seed", 1, "generated workload's seed")
	platform := fs.String("platform", "A", "platform for generated workloads: A, B or C")
	dumpSystem := fs.String("dump-system", "", "write the (generated) system JSON here and exit")
	mode := fs.String("mode", "flattening", "analysis mode: flattening, overheadfree or existing")
	seed := fs.Int64("seed", 0, "allocator seed")
	out := fs.String("out", "", "write the allocation JSON here")
	simulate := fs.Float64("simulate", 2200, "simulate the allocation for this many ms (0 to skip)")
	gantt := fs.Float64("gantt", 0, "render an execution Gantt chart for the first N ms of the simulation")
	showMetrics := fs.Bool("metrics", false, "record and print allocator and simulator metrics (search effort, scheduler events)")
	metricsCSV := fs.String("metrics-csv", "", "also write the metrics to this CSV file (implies -metrics)")
	traceOut := fs.String("trace-out", "", "write the simulation's flight-recorder trace as Chrome trace-event JSON (open in ui.perfetto.dev)")
	traceJSONL := fs.String("trace-jsonl", "", "write the simulation's flight-recorder trace as JSON lines (replay with vc2m-trace)")
	diagnose := fs.Bool("diagnose", false, "on deadline misses, print a per-task miss-cause breakdown")
	provFlag := fs.Bool("provenance", false, "record the allocator's decision stream and print it after the run")
	reportOut := fs.String("report-out", "", "write a unified run report JSON here (implies -provenance; inspect with vc2m-report)")
	serverURL := fs.String("server", "", "submit the run to a vc2m-server daemon at this URL instead of executing in-process")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	spansOut := fs.String("spans-out", "", "write the run's wall-clock stage spans as Chrome trace-event JSON (open in ui.perfetto.dev)")
	spans := fs.Bool("spans", false, "print a wall-clock stage-latency breakdown after the run")
	slowRun := fs.Duration("slow-run", 0, "log a per-stage breakdown if the run exceeds this wall time (0 disables)")
	logCfg := obs.LogFlags(fs, "warn")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// An interrupt cancels the in-flight allocation (or the pending
	// server call); completed outputs flush on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := realMain(ctx, simFlags{
		in: *in, genUtil: *genUtil, genDist: *genDist, genSeed: *genSeed,
		platform: *platform, dumpSystem: *dumpSystem, mode: *mode, seed: *seed,
		out: *out, simulate: *simulate, gantt: *gantt,
		showMetrics: *showMetrics, metricsCSV: *metricsCSV,
		traceOut: *traceOut, traceJSONL: *traceJSONL,
		diagnose: *diagnose, provenance: *provFlag, reportOut: *reportOut,
		serverURL: *serverURL, cpuprofile: *cpuprofile, memprofile: *memprofile,
		spansOut: *spansOut, spans: *spans, slowRun: *slowRun, logCfg: logCfg,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-sim:", err)
		return 1
	}
	return 0
}

type simFlags struct {
	in          string
	genUtil     float64
	genDist     string
	genSeed     int64
	platform    string
	dumpSystem  string
	mode        string
	seed        int64
	out         string
	simulate    float64
	gantt       float64
	showMetrics bool
	metricsCSV  string
	traceOut    string
	traceJSONL  string
	diagnose    bool
	provenance  bool
	reportOut   string
	serverURL   string
	cpuprofile  string
	memprofile  string
	spansOut    string
	spans       bool
	slowRun     time.Duration
	logCfg      *obs.LogConfig
}

func realMain(ctx context.Context, f simFlags) error {
	lg, err := f.logCfg.Build(os.Stderr, obs.GetBuildInfo().LogAttrs()...)
	if err != nil {
		return err
	}
	if f.serverURL != "" {
		return runViaServer(ctx, f)
	}

	stopProf, err := profutil.Start(f.cpuprofile, f.memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "vc2m-sim: profile:", perr)
		}
	}()

	// Wall-clock span instrumentation: one trace per invocation, rooted
	// at a "run" span the allocator and simulator hang their stage spans
	// under. Spans live strictly outside the report/allocation outputs,
	// so enabling them never changes a run's bytes. The trace finalizes
	// on every exit path — a rejected allocation is exactly the kind of
	// run worth profiling.
	var tr *obs.Trace
	var rootSpan *vc2m.Span
	if f.spansOut != "" || f.spans || f.slowRun > 0 {
		tr = obs.NewTrace()
		rootSpan = tr.StartSpan(obs.StageRun)
	}
	begin := time.Now() //vc2m:wallclock slow-run threshold is wall time by design
	defer func() {
		rootSpan.End()
		lg.LogSlow(tr, "vc2m-sim", time.Since(begin), f.slowRun) //vc2m:wallclock slow-run threshold is wall time by design
		if f.spans {
			fmt.Println("# wall-clock stage breakdown")
			_ = tr.WriteBreakdown(os.Stdout)
		}
		if f.spansOut != "" {
			if werr := writeSpans(f.spansOut, tr); werr != nil {
				fmt.Fprintln(os.Stderr, "vc2m-sim: spans:", werr)
			}
		}
	}()

	sys, err := loadOrGenerate(f.in, f.platform, f.genUtil, f.genDist, f.genSeed)
	if err != nil {
		return err
	}

	if f.dumpSystem != "" {
		data, err := model.EncodeSystem(sys)
		if err != nil {
			return err
		}
		if err := os.WriteFile(f.dumpSystem, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d VMs, %d tasks, reference utilization %.2f)\n",
			f.dumpSystem, len(sys.VMs), len(sys.Tasks()), sys.RefUtil())
		return nil
	}

	m, modeName, err := server.ParseMode(f.mode)
	if err != nil {
		return err
	}

	var rec *vc2m.MetricsRecorder
	if f.showMetrics || f.metricsCSV != "" {
		rec = vc2m.NewMetrics()
	}
	var prov *vc2m.ProvenanceRecorder
	if f.provenance || f.reportOut != "" {
		prov = vc2m.NewProvenance()
	}
	run := reportRun{path: f.reportOut, mode: modeName, seed: f.genSeed, sys: sys, metrics: rec, prov: prov}

	a, err := vc2m.Allocate(sys, vc2m.Options{Mode: m, Seed: f.seed, Metrics: rec, Provenance: prov, Context: ctx, Span: rootSpan})
	if err != nil {
		// The rejection is itself a result: persist the decision trail
		// (with the binding resource) before exiting non-zero.
		run.rejection = err
		if werr := run.write(); werr != nil {
			fmt.Fprintln(os.Stderr, "vc2m-sim: report:", werr)
		}
		return err
	}
	run.alloc = a
	fmt.Print(a.Report())

	if f.out != "" {
		data, err := model.EncodeAllocation(a)
		if err != nil {
			return err
		}
		if err := os.WriteFile(f.out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote allocation to %s\n", f.out)
	}

	if f.simulate > 0 {
		sink, closeSinks, err := openTraceSinks(f.traceOut, f.traceJSONL)
		if err != nil {
			return err
		}
		recordTrace := f.gantt > 0 || f.diagnose || f.reportOut != ""
		res, err := vc2m.Simulate(a, f.simulate, vc2m.SimOptions{RecordTrace: recordTrace, Trace: sink, Metrics: rec, Span: rootSpan})
		if cerr := closeSinks(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		run.sim = res
		fmt.Printf("simulated %.0f ms: %d jobs released, %d completed, %d deadline misses\n",
			f.simulate, res.Released, res.Completed, res.Missed)
		if f.gantt > 0 {
			fmt.Print(vc2m.RenderGantt(res, 0, f.gantt, 100))
		}
		if res.Missed > 0 && recordTrace {
			run.diag = vc2m.DiagnoseMisses(res.Events)
		}
		if f.diagnose && run.diag != nil {
			fmt.Print(run.diag.Render())
		}
		if res.Missed > 0 {
			if werr := run.write(); werr != nil {
				fmt.Fprintln(os.Stderr, "vc2m-sim: report:", werr)
			}
			return fmt.Errorf("allocation declared schedulable but missed deadlines")
		}
	}
	if err := run.write(); err != nil {
		return err
	}

	if f.provenance && prov != nil {
		fmt.Printf("# %d allocation decision(s)\n", prov.Len())
		for _, d := range prov.Decisions() {
			fmt.Println(report.FormatDecision(d))
		}
	}

	if rec != nil {
		snap := rec.Snapshot()
		fmt.Println("# allocator + simulator metrics")
		fmt.Print(snap.Table())
		if f.metricsCSV != "" {
			if err := writeMetricsCSV(f.metricsCSV, snap, modeName); err != nil {
				return err
			}
		}
	}
	return nil
}

// runViaServer submits the run to a vc2m-server daemon and fetches the
// report. The request carries the same title, seeds and spec as the
// in-process path, so the served document is byte-identical to a local
// run — the report is streamed back verbatim into -report-out.
func runViaServer(ctx context.Context, f simFlags) error {
	localOnly := []struct {
		name string
		set  bool
	}{
		{"-dump-system", f.dumpSystem != ""},
		{"-out", f.out != ""},
		{"-gantt", f.gantt > 0},
		{"-trace-out", f.traceOut != ""},
		{"-trace-jsonl", f.traceJSONL != ""},
		{"-metrics-csv", f.metricsCSV != ""},
		{"-cpuprofile", f.cpuprofile != ""},
		{"-memprofile", f.memprofile != ""},
		{"-spans-out", f.spansOut != ""},
		{"-spans", f.spans},
		{"-slow-run", f.slowRun > 0},
	}
	for _, flag := range localOnly {
		if flag.set {
			return fmt.Errorf("%s is local-only and cannot be combined with -server", flag.name)
		}
	}
	_, modeName, err := server.ParseMode(f.mode)
	if err != nil {
		return err
	}
	req := server.SubmitRequest{
		Kind:       server.KindRun,
		Title:      fmt.Sprintf("vc2m-sim %s run (seed %d)", modeName, f.genSeed),
		Mode:       modeName,
		Seed:       f.seed,
		GenSeed:    f.genSeed,
		SimulateMs: f.simulate,
		Metrics:    f.showMetrics,
	}
	if f.in != "" {
		data, err := os.ReadFile(f.in)
		if err != nil {
			return err
		}
		sys, err := model.DecodeSystem(data)
		if err != nil {
			return err
		}
		req.System = sys
	} else {
		plat, err := model.PlatformByName(f.platform)
		if err != nil {
			return err
		}
		dist, err := workload.ParseDistribution(f.genDist)
		if err != nil {
			return err
		}
		req.Generate = &workload.Config{Platform: plat, TargetRefUtil: f.genUtil, Dist: dist}
	}

	c := client.New(f.serverURL, nil)
	sub, err := c.Submit(ctx, req)
	if err != nil {
		return err
	}
	fmt.Printf("submitted as %s to %s\n", sub.ID, f.serverURL)
	st, err := c.Wait(ctx, sub.ID)
	if err != nil {
		return err
	}
	switch st.State {
	case server.StateDone:
	case server.StateFailed, server.StateCanceled:
		return fmt.Errorf("run %s %s: %s", st.ID, st.State, st.Error)
	}
	data, err := c.ReportBytes(ctx, sub.ID)
	if err != nil {
		return err
	}
	var doc report.Document
	if derr := json.Unmarshal(data, &doc); derr != nil {
		return derr
	}
	if f.reportOut != "" {
		if err := os.WriteFile(f.reportOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote report to %s (inspect with vc2m-report)\n", f.reportOut)
	}
	if doc.Rejection != nil {
		return errors.New(doc.Rejection.Reason)
	}
	if doc.Allocation != nil {
		fmt.Printf("allocation: %s, %d cores, schedulable %v\n",
			doc.Allocation.Solution, len(doc.Allocation.Cores), doc.Allocation.Schedulable)
	}
	if doc.Sim != nil {
		fmt.Printf("simulated: %d jobs released, %d completed, %d deadline misses\n",
			doc.Sim.Released, doc.Sim.Completed, doc.Sim.Missed)
	}
	if f.provenance {
		fmt.Printf("# %d allocation decision(s)\n", len(doc.Decisions))
		for _, d := range doc.Decisions {
			fmt.Println(report.FormatDecision(d))
		}
	}
	if doc.Sim != nil && doc.Sim.Missed > 0 {
		return fmt.Errorf("allocation declared schedulable but missed deadlines")
	}
	return nil
}

// reportRun accumulates the sections of the unified run report as the
// driver progresses, so the document can be written at whichever point the
// run ends (allocation rejection, deadline misses, or clean completion).
type reportRun struct {
	path      string
	mode      string
	seed      int64
	sys       *vc2m.System
	alloc     *vc2m.Allocation
	rejection error
	sim       *vc2m.SimResult
	diag      *vc2m.MissReport
	metrics   *vc2m.MetricsRecorder
	prov      *vc2m.ProvenanceRecorder
}

// write builds and saves the report document; a no-op without -report-out.
func (r *reportRun) write() error {
	if r.path == "" {
		return nil
	}
	in := report.RunInput{
		Title:      fmt.Sprintf("vc2m-sim %s run (seed %d)", r.mode, r.seed),
		Seed:       r.seed,
		Mode:       r.mode,
		Platform:   r.sys.Platform,
		Allocation: r.alloc,
		Rejection:  server.ToRejection(r.rejection),
		Sim:        r.sim,
		Diagnosis:  r.diag,
		Metrics:    r.metrics,
		Provenance: r.prov,
	}
	if err := report.Save(r.path, report.BuildRun(in)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote report to %s (inspect with vc2m-report)\n", r.path)
	return nil
}

// writeSpans exports the wall-clock span trace as Chrome trace-event
// JSON — same viewer as -trace-out, but the timeline is real elapsed time
// across pipeline stages, not simulated hypervisor time.
func writeSpans(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote spans to %s (open in ui.perfetto.dev)\n", path)
	return nil
}

// openTraceSinks builds the flight-recorder sink requested by the
// -trace-out / -trace-jsonl flags. The returned close function finalizes
// the output files (the Chrome export in particular is invalid JSON
// until closed) and must run before the process exits successfully.
func openTraceSinks(chromePath, jsonlPath string) (vc2m.TraceSink, func() error, error) {
	var sinks []vc2m.TraceSink
	var closers []func() error
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return nil, nil, err
		}
		cw := vc2m.NewTraceChrome(f)
		sinks = append(sinks, cw)
		closers = append(closers, cw.Close, f.Close)
	}
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			return nil, nil, err
		}
		jw := vc2m.NewTraceJSONL(f)
		sinks = append(sinks, jw)
		closers = append(closers, jw.Close, f.Close)
	}
	closeAll := func() error {
		for _, c := range closers {
			if err := c(); err != nil {
				return err
			}
		}
		if chromePath != "" {
			fmt.Fprintf(os.Stderr, "wrote trace to %s (open in ui.perfetto.dev)\n", chromePath)
		}
		if jsonlPath != "" {
			fmt.Fprintf(os.Stderr, "wrote trace to %s (inspect with vc2m-trace)\n", jsonlPath)
		}
		return nil
	}
	return vc2m.MultiTrace(sinks...), closeAll, nil
}

// writeMetricsCSV dumps the snapshot as (scope, kind, name, value, ...)
// rows, with the analysis mode as the scope.
func writeMetricsCSV(path string, snap vc2m.MetricsSnapshot, scope string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write(metrics.CSVHeader()); err != nil {
		return err
	}
	for _, row := range snap.CSVRows(scope) {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func loadOrGenerate(in, platform string, util float64, dist string, seed int64) (*vc2m.System, error) {
	if in != "" {
		data, err := os.ReadFile(in)
		if err != nil {
			return nil, err
		}
		return model.DecodeSystem(data)
	}
	plat, err := model.PlatformByName(platform)
	if err != nil {
		return nil, err
	}
	return vc2m.GenerateWorkload(vc2m.WorkloadConfig{
		Platform:      plat,
		TargetRefUtil: util,
		Distribution:  dist,
		Seed:          seed,
	})
}
