// vc2m-paper reproduces the paper's evaluation. Run bare, it regenerates
// all of it in one command: Figures 2(a-c) and 3(a-c), Figure 4, Tables 1
// and 2, the Section 3.3 isolation study, and this repository's additions
// (the VM-count, partition-count, regulation-period and online-admission
// studies). Text tables and CSVs are written under -out. The defaults
// (-tasksets 50 -step 0.05) are the paper's scale, 1950 tasksets per
// figure; the whole run takes about 20 s on two cores.
//
// Each experiment also runs alone as a subcommand that prints to stdout:
//
//	vc2m-paper sweep      Figures 2 and 3: one platform and distribution
//	vc2m-paper fig4       Figure 4: analysis running time
//	vc2m-paper tables     Tables 1 and 2: regulator and scheduler overheads
//	vc2m-paper isolation  Section 3.3: WCET with and without isolation
//
// An interrupt (SIGINT or SIGTERM) stops a sweep at the next utilization
// point, flushes the points completed so far, and exits non-zero.
//
// With -server the bare command submits the six figure sweeps to a
// vc2m-server daemon as sweep runs; each figure's report document is
// fetched and written under -out as <figure>.report.json.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"vc2m/client"
	"vc2m/internal/experiment"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/parsec"
	"vc2m/internal/plot"
	"vc2m/internal/profutil"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/server"
	"vc2m/internal/workload"
)

// A mode registers its flags on c and returns the body to run once they
// are parsed.
type mode func(c *command) func(ctx context.Context) error

// subcommands are the experiments that also run alone; the bare command
// runs them all.
var subcommands = []struct {
	name, summary string
	mode          mode
}{
	{"sweep", "Figures 2 and 3: schedulable fraction vs utilization for one platform and distribution", sweepMode},
	{"fig4", "Figure 4: analysis running time vs utilization", fig4Mode},
	{"tables", "Tables 1 and 2: regulator and scheduler handler overheads", tablesMode},
	{"isolation", "Section 3.3: WCET with and without cache+BW isolation", isolationMode},
}

// figures lists the six schedulability sweeps of Figures 2 and 3.
var figures = []struct {
	name string
	plat model.Platform
	dist workload.Distribution
}{
	{"fig2a", model.PlatformA, workload.Uniform},
	{"fig2b", model.PlatformB, workload.Uniform},
	{"fig2c", model.PlatformC, workload.Uniform},
	{"fig3a", model.PlatformA, workload.BimodalLight},
	{"fig3b", model.PlatformA, workload.BimodalMedium},
	{"fig3c", model.PlatformA, workload.BimodalHeavy},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches on the first argument: a subcommand name, or flags of
// the full run.
func run(args []string, stdout, stderr io.Writer) int {
	name, m := "vc2m-paper", mode(fullMode)
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		m = nil
		for _, sc := range subcommands {
			if sc.name == args[0] {
				name, m = "vc2m-paper "+sc.name, sc.mode
			}
		}
		if m == nil {
			fmt.Fprintf(stderr, "vc2m-paper: unknown subcommand %q\n", args[0])
			usage(stderr)
			return 2
		}
		args = args[1:]
	}
	c := newCommand(name, stdout, stderr)
	return c.exec(args, m(c))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: vc2m-paper [flags]               run every experiment into -out")
	fmt.Fprintln(w, "       vc2m-paper <subcommand> [flags]  run one experiment, printing to stdout")
	fmt.Fprintln(w, "\nsubcommands (-h on one lists its flags):")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  %-10s %s\n", sc.name, sc.summary)
	}
}

// command is the setup every mode shares: a flag set carrying -seed and
// the log flags, optional profiling, and the output streams.
type command struct {
	fs                     *flag.FlagSet
	seed                   *int64
	log                    *obs.LogConfig
	cpuprofile, memprofile *string
	stdout, stderr         io.Writer
}

func newCommand(name string, stdout, stderr io.Writer) *command {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &command{
		fs:     fs,
		seed:   fs.Int64("seed", 1, "random seed"),
		log:    obs.LogFlags(fs, "warn"),
		stdout: stdout,
		stderr: stderr,
	}
}

// profileFlags adds -cpuprofile and -memprofile to the command.
func (c *command) profileFlags() {
	c.cpuprofile = c.fs.String("cpuprofile", "", "write a CPU profile to this file")
	c.memprofile = c.fs.String("memprofile", "", "write a heap profile to this file on exit")
}

// exec parses args and runs body under an interrupt-cancelled context and
// any requested profiles. It is the defer-safe driver: every exit path
// unwinds through it, so profiles stop cleanly. A usage error exits 2, a
// failed body 1.
func (c *command) exec(args []string, body func(ctx context.Context) error) int {
	if err := c.fs.Parse(args); err != nil {
		return 2
	}
	if c.fs.NArg() > 0 {
		fmt.Fprintf(c.stderr, "vc2m-paper: unexpected argument %q\n", c.fs.Arg(0))
		return 2
	}
	lg, err := c.log.Build(c.stderr, obs.GetBuildInfo().LogAttrs()...)
	if err != nil {
		fmt.Fprintln(c.stderr, "vc2m-paper:", err)
		return 2
	}
	lg.Debug("starting", "cmd", c.fs.Name())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if c.cpuprofile != nil {
		stopProf, err := profutil.Start(*c.cpuprofile, *c.memprofile)
		if err != nil {
			fmt.Fprintln(c.stderr, "vc2m-paper:", err)
			return 1
		}
		defer func() {
			if perr := stopProf(); perr != nil {
				fmt.Fprintln(c.stderr, "vc2m-paper: profile:", perr)
			}
		}()
	}
	if err := body(ctx); err != nil {
		fmt.Fprintln(c.stderr, "vc2m-paper:", err)
		return 1
	}
	return 0
}

// progress reports a sweep's completed utilization points on stderr.
func (c *command) progress(done, total int) {
	fmt.Fprintf(c.stderr, "\rutilization points: %d/%d", done, total)
	if done == total {
		fmt.Fprintln(c.stderr)
	}
}

// gridFlags are the utilization-sweep flags that sweep and fig4 share.
type gridFlags struct {
	platform       *string
	tasksets       *int
	min, max, step *float64
	metrics        *bool
	metricsCSV     *string
}

func (c *command) gridFlags(min, step float64) gridFlags {
	return gridFlags{
		platform:   c.fs.String("platform", "A", "platform configuration: A (4 cores, 20 partitions), B (6, 20) or C (4, 12)"),
		tasksets:   c.fs.Int("tasksets", 10, "independent tasksets per utilization point (paper: 50)"),
		min:        c.fs.Float64("min", min, "minimum taskset reference utilization"),
		max:        c.fs.Float64("max", 2.0, "maximum taskset reference utilization"),
		step:       c.fs.Float64("step", step, "utilization step (paper: 0.05)"),
		metrics:    c.fs.Bool("metrics", false, "collect and print per-solution search-effort counters (dbf/sbf evaluations, permutations, partition grants, ...)"),
		metricsCSV: c.fs.String("metrics-csv", "", "also write the per-solution metrics to this CSV file (implies -metrics)"),
	}
}

func (g gridFlags) config(ctx context.Context, seed int64) (experiment.SchedConfig, error) {
	plat, err := model.PlatformByName(*g.platform)
	return experiment.SchedConfig{
		Platform:         plat,
		UtilMin:          *g.min,
		UtilMax:          *g.max,
		UtilStep:         *g.step,
		TasksetsPerPoint: *g.tasksets,
		Seed:             seed,
		CollectMetrics:   *g.metrics || *g.metricsCSV != "",
		Context:          ctx,
	}, err
}

// writeMetrics prints the per-solution counters when they were collected,
// and writes them to -metrics-csv when it is set.
func (g gridFlags) writeMetrics(w io.Writer, res *experiment.SchedResult) error {
	if !*g.metrics && *g.metricsCSV == "" {
		return nil
	}
	fmt.Fprintln(w, "# per-solution search-effort metrics")
	fmt.Fprint(w, res.MetricsTable())
	if *g.metricsCSV == "" {
		return nil
	}
	return writeFile(*g.metricsCSV, res.WriteMetricsCSV)
}

// sweepMode is Figures 2 and 3: the fraction of schedulable tasksets as a
// function of taskset reference utilization, for the five solutions, on
// one platform and task-utilization distribution. Figure 2 is -dist
// uniform on -platform A, B and C; Figure 3 is -platform A with -dist
// light, medium and heavy.
func sweepMode(c *command) func(context.Context) error {
	c.profileFlags()
	g := c.gridFlags(0.1, 0.1)
	dist := c.fs.String("dist", "uniform", "task utilization distribution: uniform, light, medium or heavy")
	quiet := c.fs.Bool("quiet", false, "suppress progress output")
	doPlot := c.fs.Bool("plot", false, "render the curves as an ASCII chart (the figure itself)")
	csvPath := c.fs.String("csv", "", "also write the fraction series to this CSV file")
	parallel := c.fs.Int("parallel", runtime.NumCPU(), "tasksets analyzed concurrently (results are identical at any value; use 1 when timing)")
	provFlag := c.fs.Bool("provenance", false, "record per-taskset accept/reject provenance (implied by -report-out)")
	reportOut := c.fs.String("report-out", "", "write a unified sweep report JSON here (inspect with vc2m-report)")
	return func(ctx context.Context) error {
		cfg, err := g.config(ctx, *c.seed)
		if err != nil {
			return err
		}
		if cfg.Dist, err = workload.ParseDistribution(*dist); err != nil {
			return err
		}
		cfg.Parallel = *parallel
		var prov *provenance.Recorder
		if *provFlag || *reportOut != "" {
			prov = provenance.New()
			cfg.Provenance = prov
		}
		if !*quiet {
			cfg.Progress = c.progress
		}

		res, runErr := experiment.RunSchedulability(cfg)
		if res == nil {
			return runErr
		}
		// On an interrupt res holds the completed utilization points; flush
		// everything below, then surface the error.
		fmt.Fprintln(c.stdout, fractionsText(res))
		if *reportOut != "" {
			if err := saveReport(c.stderr, *reportOut, report.SweepInput{
				Title:      fmt.Sprintf("vc2m-paper sweep %s/%s (seed %d)", cfg.Platform.Name, cfg.Dist, cfg.Seed),
				Seed:       cfg.Seed,
				Platform:   cfg.Platform,
				Sweep:      res.ReportSweep(),
				Provenance: prov,
			}); err != nil {
				return err
			}
		}
		if *provFlag {
			fmt.Fprintf(c.stdout, "# %d decision(s) recorded; rejections by binding resource:\n", prov.Len())
			for _, e := range report.RejectionPareto(&report.Document{Decisions: prov.Decisions()}) {
				fmt.Fprintf(c.stdout, "  %-6s %d\n", e.Resource, e.Count)
			}
		}
		if err := g.writeMetrics(c.stdout, res); err != nil {
			return err
		}
		if *csvPath != "" {
			if err := writeFile(*csvPath, res.WriteFractionsCSV); err != nil {
				return err
			}
		}
		if *doPlot {
			var series []plot.Series
			for _, s := range res.FractionSeries() {
				series = append(series, plot.Series{Name: s.Name, X: s.X, Y: s.Y})
			}
			chart, err := plot.Render(plot.Config{
				Title: fmt.Sprintf("Fraction of schedulable tasksets (platform %s, %s)", cfg.Platform.Name, cfg.Dist),
				YMin:  0, YMax: 1,
				XLabel: "taskset reference utilization", YLabel: "schedulable fraction",
			}, series...)
			if err != nil {
				return err
			}
			fmt.Fprintln(c.stdout, chart)
		}
		return runErr
	}
}

// fig4Mode is Figure 4: the average analysis time of each solution as a
// function of taskset reference utilization, uniform distribution. The
// reproducible content is the shape: the overhead-free analyses run in
// near-constant time, the existing-CSA ones are slower and grow with
// utilization. It runs serially, so its timings are uncontended.
func fig4Mode(c *command) func(context.Context) error {
	g := c.gridFlags(0.2, 0.2)
	return func(ctx context.Context) error {
		cfg, err := g.config(ctx, *c.seed)
		if err != nil {
			return err
		}
		cfg.Dist, cfg.Progress = workload.Uniform, c.progress
		res, runErr := experiment.RunSchedulability(cfg)
		if res == nil {
			return runErr
		}
		// On an interrupt res holds the completed utilization points; flush
		// the tables, then surface the error.
		fmt.Fprintln(c.stdout, runtimesText(res))
		if err := g.writeMetrics(c.stdout, res); err != nil {
			return err
		}
		return runErr
	}
}

// tablesMode is Tables 1 and 2: the cost of the memory-bandwidth
// regulator's throttle and replenishment handlers, and of the scheduler's
// budget replenishment, scheduling and context-switch paths. The paper
// measures interrupt paths inside Xen; this measures the wall-clock cost of
// the hypervisor simulator's equivalent handlers, so only the relative
// shape is comparable.
func tablesMode(c *command) func(context.Context) error {
	vcpuList := c.fs.String("vcpus", "24,96", "comma-separated VCPU counts to measure (paper: 24,96)")
	horizon := c.fs.Float64("horizon", 2000, "simulated duration in ms")
	csvPath := c.fs.String("csv", "", "also write the first configuration's handler summaries to this CSV file")
	return func(ctx context.Context) error {
		var counts []int
		for _, s := range strings.Split(*vcpuList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return fmt.Errorf("invalid VCPU count %q", s)
			}
			counts = append(counts, n)
		}
		tables, err := overheadTables(ctx, counts, *horizon, *c.seed, *csvPath)
		if err != nil {
			return err
		}
		fmt.Fprint(c.stdout, tables)
		return nil
	}
}

// isolationMode is Section 3.3, "Impact of resource isolation on WCET":
// each synthetic PARSEC benchmark's execution time alone, co-running
// without isolation, and co-running under cache partitioning plus
// bandwidth regulation. -benchmark adds that benchmark's slowdown profile,
// the dependence of execution time on cache and bandwidth partitions that
// the allocation algorithms consume.
func isolationMode(c *command) func(context.Context) error {
	cores := c.fs.Int("cores", 4, "number of co-running cores")
	ops := c.fs.Int("ops", 100000, "operations per task")
	benchmark := c.fs.String("benchmark", "", "also print this benchmark's slowdown profile s(c,b)")
	return func(context.Context) error {
		res, err := experiment.RunIsolation(experiment.IsolationConfig{Cores: *cores, Ops: *ops, Seed: *c.seed})
		if err != nil {
			return err
		}
		fmt.Fprint(c.stdout, res.Table())
		if *benchmark == "" {
			return nil
		}
		bm, err := parsec.ByName(*benchmark)
		if err != nil {
			return err
		}
		p := model.PlatformA
		prof := bm.Profile(p)
		w := c.stdout
		fmt.Fprintf(w, "\nslowdown profile s(c,b) for %s on platform A (rows: cache c, cols: BW b)\n", bm.Name)
		fmt.Fprintf(w, "%4s", "c\\b")
		for b := p.Bmin; b <= p.B; b += 2 {
			fmt.Fprintf(w, " %5d", b)
		}
		fmt.Fprintln(w)
		for cc := p.Cmin; cc <= p.C; cc += 2 {
			fmt.Fprintf(w, "%4d", cc)
			for b := p.Bmin; b <= p.B; b += 2 {
				fmt.Fprintf(w, " %5.2f", prof.At(cc, b))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "max slowdown s^max (cache disabled, worst BW): %.2f\n", bm.MaxSlowdown(p))
		return nil
	}
}

// fullMode runs every experiment at paper scale and writes each one's text
// table, and CSV where it has one, under -out.
func fullMode(c *command) func(context.Context) error {
	c.profileFlags()
	out := c.fs.String("out", "results", "output directory")
	tasksets := c.fs.Int("tasksets", 50, "tasksets per utilization point (paper: 50)")
	step := c.fs.Float64("step", 0.05, "utilization step (paper: 0.05)")
	parallel := c.fs.Int("parallel", runtime.NumCPU(), "tasksets/trials analyzed concurrently (results are identical at any value; use 1 when timing, e.g. for fig4)")
	provFlag := c.fs.Bool("provenance", false, "record per-taskset accept/reject provenance across all figure sweeps (implied by -report-out)")
	reportOut := c.fs.String("report-out", "", "write one unified sweep report JSON covering all figures here (inspect with vc2m-report)")
	serverURL := c.fs.String("server", "", "submit the figure sweeps to a vc2m-server daemon at this URL instead of running in-process")
	c.fs.Usage = func() {
		usage(c.stderr)
		fmt.Fprintln(c.stderr, "\nflags of the full run:")
		c.fs.PrintDefaults()
	}
	return func(ctx context.Context) error {
		r := paperRun{command: c, out: *out, tasksets: *tasksets, step: *step, parallel: *parallel}
		if err := os.MkdirAll(r.out, 0o755); err != nil {
			return err
		}
		if *serverURL != "" {
			return r.viaServer(ctx, *serverURL)
		}
		// One recorder spans all sweeps; the per-figure ProvenanceLabel
		// keeps the sweep cases distinguishable ("fig3a/u=1.00/ts=7").
		var prov *provenance.Recorder
		if *provFlag || *reportOut != "" {
			prov = provenance.New()
		}
		return r.all(ctx, prov, *reportOut)
	}
}

// paperRun is the full run's configuration.
type paperRun struct {
	*command
	out      string
	tasksets int
	step     float64
	parallel int
}

func (r paperRun) write(name string, write func(io.Writer) error) error {
	return writeFile(filepath.Join(r.out, name), write)
}

func (r paperRun) all(ctx context.Context, prov *provenance.Recorder, reportOut string) error {
	seed := *r.seed
	var fig2a *experiment.SchedResult
	for _, fig := range figures {
		fmt.Fprintf(r.stderr, "%s (platform %s, %s)...\n", fig.name, fig.plat.Name, fig.dist)
		res, err := experiment.RunSchedulability(experiment.SchedConfig{
			Platform:         fig.plat,
			Dist:             fig.dist,
			UtilStep:         r.step,
			TasksetsPerPoint: r.tasksets,
			Seed:             seed,
			Parallel:         r.parallel,
			Provenance:       prov,
			ProvenanceLabel:  fig.name,
			Context:          ctx,
		})
		if res != nil {
			// Flush whatever completed — on an interrupt this preserves
			// the utilization points analyzed before the signal.
			if werr := r.write(fig.name+".txt", text(fractionsText(res))); err == nil {
				err = werr
			}
			if werr := r.write(fig.name+".csv", res.WriteFractionsCSV); err == nil {
				err = werr
			}
		}
		if err != nil {
			return err
		}
		if fig.name == "fig2a" {
			fig2a = res
		}
	}
	if reportOut != "" {
		if err := saveReport(r.stderr, reportOut, report.SweepInput{
			Title:      fmt.Sprintf("vc2m-paper figure sweeps (seed %d)", seed),
			Seed:       seed,
			Platform:   model.PlatformA,
			Sweep:      fig2a.ReportSweep(),
			Provenance: prov,
		}); err != nil {
			return err
		}
	}

	// Figure 4: running times come from the fig2a sweep (same workloads).
	fmt.Fprintln(r.stderr, "fig4 (running times)...")
	if err := r.write("fig4.txt", text(runtimesText(fig2a))); err != nil {
		return err
	}
	if err := r.write("fig4.csv", fig2a.WriteRuntimesCSV); err != nil {
		return err
	}

	fmt.Fprintln(r.stderr, "tables 1-2 (overheads)...")
	tables, err := overheadTables(ctx, []int{24, 96}, 5000, seed, filepath.Join(r.out, "table1.csv"))
	if err != nil {
		return err
	}
	if err := r.write("tables12.txt", text(tables)); err != nil {
		return err
	}

	fmt.Fprintln(r.stderr, "section 3.3 (isolation)...")
	iso, err := experiment.RunIsolation(experiment.IsolationConfig{Ops: 150000, Seed: seed})
	if err != nil {
		return err
	}
	if err := r.write("sec33.txt", text(iso.Table())); err != nil {
		return err
	}
	if err := r.write("sec33.csv", iso.WriteCSV); err != nil {
		return err
	}

	// Repository additions.
	fmt.Fprintln(r.stderr, "vm-count study...")
	vmc, err := experiment.RunVMCount(experiment.VMCountConfig{
		Platform: model.PlatformA, Util: 1.0, Seed: seed, Parallel: r.parallel,
	})
	if err != nil {
		return err
	}
	if err := r.write("vmcount.txt", text(vmc.Table())); err != nil {
		return err
	}

	fmt.Fprintln(r.stderr, "partition sweep...")
	psweep, err := experiment.RunPartitionSweep(experiment.PartitionSweepConfig{Seed: seed, Parallel: r.parallel})
	if err != nil {
		return err
	}
	if err := r.write("partition-sweep.txt", text(psweep.Table())); err != nil {
		return err
	}

	fmt.Fprintln(r.stderr, "regulation-period sweep...")
	rsweep, err := experiment.RunRegPeriodSweep(experiment.RegPeriodSweepConfig{Seed: seed})
	if err != nil {
		return err
	}
	if err := r.write("regperiod-sweep.txt", text(experiment.RegPeriodTable(rsweep))); err != nil {
		return err
	}

	fmt.Fprintln(r.stderr, "online admission study...")
	online, err := experiment.RunOnline(experiment.OnlineConfig{Seed: seed, Parallel: r.parallel})
	if err != nil {
		return err
	}
	if err := r.write("online.txt", text(online.Table())); err != nil {
		return err
	}

	fmt.Fprintf(r.stderr, "done; outputs in %s/\n", r.out)
	return nil
}

// viaServer submits the six figure sweeps to a vc2m-server daemon, waits
// for each, and writes the fetched report documents under -out.
// Submission is concurrent — the daemon's worker pool sets the
// parallelism — and an interrupt cancels the waits, leaving the daemon to
// finish (or time out) the sweeps on its own.
func (r paperRun) viaServer(ctx context.Context, url string) error {
	c := client.New(url, nil)
	ids := make(map[string]string, len(figures))
	for _, fig := range figures {
		sub, err := c.Submit(ctx, server.SubmitRequest{
			Kind:  server.KindSweep,
			Title: fmt.Sprintf("vc2m-paper %s sweep (seed %d)", fig.name, *r.seed),
			Seed:  *r.seed,
			Sweep: &server.SweepSpec{
				Platform:         fig.plat.Name,
				Dist:             fig.dist.String(),
				UtilStep:         r.step,
				TasksetsPerPoint: r.tasksets,
				Parallel:         r.parallel,
			},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(r.stderr, "%s submitted as %s\n", fig.name, sub.ID)
		ids[fig.name] = sub.ID
	}
	var firstErr error
	for _, fig := range figures {
		id := ids[fig.name]
		st, err := c.Wait(ctx, id)
		if err != nil {
			return err
		}
		if st.State != server.StateDone {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s (%s) %s: %s", fig.name, id, st.State, st.Error)
			}
			continue
		}
		data, err := c.ReportBytes(ctx, id)
		if err != nil {
			return err
		}
		path := filepath.Join(r.out, fig.name+".report.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(r.stderr, "wrote %s\n", path)
	}
	if firstErr != nil {
		return firstErr
	}
	fmt.Fprintf(r.stderr, "done; reports in %s/ (inspect with vc2m-report)\n", r.out)
	return nil
}

// fractionsText renders a Figure 2/3 sweep: its fraction table and the
// knee summary.
func fractionsText(res *experiment.SchedResult) string {
	return res.FractionTable() + "\n" + res.Summary()
}

// runtimesText renders Figure 4 from a sweep's running times.
func runtimesText(res *experiment.SchedResult) string {
	return "# Figure 4: average running time per taskset (milliseconds)\n" + res.RuntimeTable()
}

// overheadTables measures the handler overheads at each VCPU count and
// renders Tables 1 and 2. Table 1, and the CSV at csvPath when it is set,
// come from the first count; Table 2 has one block per count.
func overheadTables(ctx context.Context, counts []int, horizonMs float64, seed int64, csvPath string) (string, error) {
	var b strings.Builder
	for i, n := range counts {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		res, err := experiment.RunOverhead(experiment.OverheadConfig{VCPUs: n, HorizonMs: horizonMs, Seed: seed})
		if err != nil {
			return "", err
		}
		if i == 0 {
			if csvPath != "" {
				if err := writeFile(csvPath, res.WriteCSV); err != nil {
					return "", err
				}
			}
			fmt.Fprintf(&b, "%s  (%d throttle events, %d BW replenishments over %.0f ms)\n\nTable 2: Scheduler's overhead (us)\n",
				res.Table1(), res.ThrottleEvents, res.BWReplenishments, horizonMs)
		}
		b.WriteString(res.Table2Row())
	}
	return b.String(), nil
}

func saveReport(stderr io.Writer, path string, in report.SweepInput) error {
	if err := report.Save(path, report.BuildSweep(in)); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote report to %s (inspect with vc2m-report)\n", path)
	return nil
}

// text adapts a rendered table to writeFile.
func text(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// writeFile streams write into the file at path; the file is closed on
// every path and the first write, flush or close error is returned.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
