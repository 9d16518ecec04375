// vc2m-runtime regenerates the running-time experiment of the paper's
// Figure 4: the average analysis time of each of the five solutions as a
// function of taskset reference utilization, on Platform A with the
// uniform utilization distribution.
//
// The reproducible content is the shape: the overhead-free analyses run in
// near-constant time while the existing-CSA solutions are an order of
// magnitude slower and grow with utilization (more tasks, more VCPUs, more
// minimum-budget searches). An interrupt (SIGINT or SIGTERM) stops the
// sweep at the next utilization point, flushes the completed points'
// tables and metrics, and exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"vc2m/internal/experiment"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the defer-safe driver: CSV files close on every exit path, and
// an interrupted sweep still flushes its completed utilization points.
func run(args []string) int {
	fs := flag.NewFlagSet("vc2m-runtime", flag.ContinueOnError)
	platform := fs.String("platform", "A", "platform configuration: A, B or C")
	tasksets := fs.Int("tasksets", 10, "independent tasksets per utilization point (paper: 50)")
	min := fs.Float64("min", 0.2, "minimum taskset reference utilization")
	max := fs.Float64("max", 2.0, "maximum taskset reference utilization")
	step := fs.Float64("step", 0.2, "utilization step")
	seed := fs.Int64("seed", 1, "random seed")
	showMetrics := fs.Bool("metrics", false, "collect and print per-solution search-effort counters (dbf/sbf evaluations, permutations, partition grants, ...)")
	metricsCSV := fs.String("metrics-csv", "", "also write the per-solution metrics to this CSV file (implies -metrics)")
	logCfg := obs.LogFlags(fs, "warn")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	lg, err := logCfg.Build(os.Stderr, obs.GetBuildInfo().LogAttrs()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-runtime:", err)
		return 2
	}
	lg.Debug("starting", "cmd", "vc2m-runtime")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := realMain(ctx, *platform, *tasksets, *min, *max, *step, *seed,
		*showMetrics, *metricsCSV); err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-runtime:", err)
		return 1
	}
	return 0
}

func realMain(ctx context.Context, platform string, tasksets int, min, max, step float64, seed int64, showMetrics bool, metricsCSV string) error {
	plat, err := model.PlatformByName(platform)
	if err != nil {
		return err
	}
	collect := showMetrics || metricsCSV != ""
	res, runErr := experiment.RunSchedulability(experiment.SchedConfig{
		Platform:         plat,
		Dist:             workload.Uniform,
		UtilMin:          min,
		UtilMax:          max,
		UtilStep:         step,
		TasksetsPerPoint: tasksets,
		Seed:             seed,
		CollectMetrics:   collect,
		Context:          ctx,
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rutilization points: %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		},
	})
	if res == nil {
		return runErr
	}
	// On an interrupt res holds the completed utilization points; flush
	// the tables, then surface the error.
	fmt.Println("# Figure 4: average running time per taskset (seconds)")
	fmt.Println(res.RuntimeTable())

	if collect {
		fmt.Println("# per-solution search-effort metrics")
		fmt.Print(res.MetricsTable())
	}
	if metricsCSV != "" {
		if err := writeCSVFile(metricsCSV, res.WriteMetricsCSV); err != nil {
			return err
		}
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
