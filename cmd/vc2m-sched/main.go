// vc2m-sched regenerates the schedulability experiments of the paper's
// Figures 2 and 3: the fraction of schedulable tasksets as a function of
// taskset reference utilization, for the five solutions, on a chosen
// platform and task-utilization distribution.
//
// Figure 2: -dist uniform with -platform A, B and C.
// Figure 3: -platform A with -dist light, medium and heavy.
//
// The full paper-scale run is -tasksets 50 over utilization 0.1..2.0 step
// 0.05 (1950 tasksets); the default uses a coarser grid so the command
// finishes in seconds. Output is a utilization-indexed table of fractions
// plus a knee/area summary. An interrupt (SIGINT or SIGTERM) stops the
// sweep at the next utilization point, flushes the completed points'
// tables, CSVs and metrics, and exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"vc2m/internal/experiment"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/plot"
	"vc2m/internal/profutil"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the defer-safe driver: deferred closers (profiles, CSV files)
// execute on every exit path, and an interrupted sweep still flushes the
// utilization points completed before the signal.
func run(args []string) int {
	fs := flag.NewFlagSet("vc2m-sched", flag.ContinueOnError)
	platform := fs.String("platform", "A", "platform configuration: A (4 cores, 20 partitions), B (6, 20) or C (4, 12)")
	dist := fs.String("dist", "uniform", "task utilization distribution: uniform, light, medium or heavy")
	tasksets := fs.Int("tasksets", 10, "independent tasksets per utilization point (paper: 50)")
	min := fs.Float64("min", 0.1, "minimum taskset reference utilization")
	max := fs.Float64("max", 2.0, "maximum taskset reference utilization")
	step := fs.Float64("step", 0.1, "utilization step (paper: 0.05)")
	seed := fs.Int64("seed", 1, "random seed")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	doPlot := fs.Bool("plot", false, "render the curves as an ASCII chart (the figure itself)")
	csvPath := fs.String("csv", "", "also write the fraction series to this CSV file")
	parallel := fs.Int("parallel", runtime.NumCPU(), "tasksets analyzed concurrently (results are identical at any value; use 1 when timing)")
	showMetrics := fs.Bool("metrics", false, "collect and print per-solution search-effort counters (dbf/sbf evaluations, permutations, partition grants, ...)")
	metricsCSV := fs.String("metrics-csv", "", "also write the per-solution metrics to this CSV file (implies -metrics)")
	provFlag := fs.Bool("provenance", false, "record per-taskset accept/reject provenance (implied by -report-out)")
	reportOut := fs.String("report-out", "", "write a unified sweep report JSON here (inspect with vc2m-report)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	logCfg := obs.LogFlags(fs, "warn")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	lg, err := logCfg.Build(os.Stderr, obs.GetBuildInfo().LogAttrs()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-sched:", err)
		return 2
	}
	lg.Debug("starting", "cmd", "vc2m-sched")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := realMain(ctx, schedFlags{
		platform: *platform, dist: *dist, tasksets: *tasksets,
		min: *min, max: *max, step: *step, seed: *seed,
		quiet: *quiet, doPlot: *doPlot, csvPath: *csvPath, parallel: *parallel,
		showMetrics: *showMetrics, metricsCSV: *metricsCSV,
		provenance: *provFlag, reportOut: *reportOut,
		cpuprofile: *cpuprofile, memprofile: *memprofile,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-sched:", err)
		return 1
	}
	return 0
}

type schedFlags struct {
	platform    string
	dist        string
	tasksets    int
	min         float64
	max         float64
	step        float64
	seed        int64
	quiet       bool
	doPlot      bool
	csvPath     string
	parallel    int
	showMetrics bool
	metricsCSV  string
	provenance  bool
	reportOut   string
	cpuprofile  string
	memprofile  string
}

func realMain(ctx context.Context, f schedFlags) error {
	stopProf, err := profutil.Start(f.cpuprofile, f.memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "vc2m-sched: profile:", perr)
		}
	}()

	plat, err := model.PlatformByName(f.platform)
	if err != nil {
		return err
	}
	d, err := workload.ParseDistribution(f.dist)
	if err != nil {
		return err
	}

	cfg := experiment.SchedConfig{
		Platform:         plat,
		Dist:             d,
		UtilMin:          f.min,
		UtilMax:          f.max,
		UtilStep:         f.step,
		TasksetsPerPoint: f.tasksets,
		Seed:             f.seed,
		Parallel:         f.parallel,
		CollectMetrics:   f.showMetrics || f.metricsCSV != "",
		Context:          ctx,
	}
	var prov *provenance.Recorder
	if f.provenance || f.reportOut != "" {
		prov = provenance.New()
		cfg.Provenance = prov
	}
	if !f.quiet {
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rutilization points: %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	res, runErr := experiment.RunSchedulability(cfg)
	if res == nil {
		return runErr
	}
	// On an interrupt res holds the completed utilization points; flush
	// everything below, then surface the error.
	fmt.Println(res.FractionTable())
	fmt.Println(res.Summary())

	if f.reportOut != "" {
		doc := report.BuildSweep(report.SweepInput{
			Title:      fmt.Sprintf("vc2m-sched %s/%s sweep (seed %d)", plat.Name, d, f.seed),
			Seed:       f.seed,
			Platform:   plat,
			Sweep:      res.ReportSweep(),
			Provenance: prov,
		})
		if err := report.Save(f.reportOut, doc); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote report to %s (inspect with vc2m-report)\n", f.reportOut)
	}
	if f.provenance && prov != nil {
		pareto := report.RejectionPareto(&report.Document{Decisions: prov.Decisions()})
		fmt.Printf("# %d decision(s) recorded; rejections by binding resource:\n", prov.Len())
		for _, e := range pareto {
			fmt.Printf("  %-6s %d\n", e.Resource, e.Count)
		}
	}

	if cfg.CollectMetrics {
		fmt.Println("# per-solution search-effort metrics")
		fmt.Print(res.MetricsTable())
	}
	if f.metricsCSV != "" {
		if err := writeCSVFile(f.metricsCSV, res.WriteMetricsCSV); err != nil {
			return err
		}
	}
	if f.csvPath != "" {
		if err := writeCSVFile(f.csvPath, res.WriteFractionsCSV); err != nil {
			return err
		}
	}

	if f.doPlot {
		var series []plot.Series
		for _, s := range res.FractionSeries() {
			series = append(series, plot.Series{Name: s.Name, X: s.X, Y: s.Y})
		}
		chart, err := plot.Render(plot.Config{
			Title: fmt.Sprintf("Fraction of schedulable tasksets (platform %s, %s)", plat.Name, d),
			YMin:  0, YMax: 1,
			XLabel: "taskset reference utilization", YLabel: "schedulable fraction",
		}, series...)
		if err != nil {
			return err
		}
		fmt.Println(chart)
	}
	return runErr
}

// writeCSVFile streams one CSV writer into path, closing the file on
// every path.
func writeCSVFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
