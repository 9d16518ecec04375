// vc2m-lint runs the repository's domain analyzers — the invariants the
// Go compiler cannot check — over module packages:
//
//   - nondet: wall-clock reads, global math/rand, order-leaking map
//     iteration (determinism is the premise of every reproduced figure);
//   - timeunit: tick/millisecond unit mixing across the timeunit.Ticks
//     boundary;
//   - nilsafe: nil-receiver guards on instrumentation hook methods
//     (trace sinks, metrics recorder);
//   - floateq: exact float ==/!= comparisons;
//   - guardedby: //vc2m:guardedby lock-discipline annotations;
//   - ctxflow: context plumbing (no context.Background below the CLI
//     layer, no ctx fields, blocking constructs observe cancellation);
//   - closeflush: opened closers/flushers closed with the error handled;
//   - stagedrift: span-stage/provenance vocabulary cross-checks.
//
// The harness is stdlib-only (go/parser + go/types + go/importer). Test
// files are skipped unless -tests is given. Intentional exceptions are
// annotated in the source with //vc2m:<directive> comments (see -list for
// each analyzer's directives); pre-existing debt can be carried in a
// committed baseline file (-baseline, refreshed with -write-baseline).
// The exit status is 1 when unsuppressed, unbaselined diagnostics remain
// or a baseline entry is stale (its finding is gone, so the baseline can
// only shrink), 2 on usage or load errors. A baseline is therefore checked
// against the same analyzers and packages that wrote it.
//
// Examples:
//
//	vc2m-lint ./...
//	vc2m-lint -json ./internal/experiment
//	vc2m-lint -only nondet,floateq ./...
//	vc2m-lint -tests -baseline .vc2m-lint-baseline.json ./...
//	vc2m-lint -sarif lint.sarif ./...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"vc2m/internal/lint"
	"vc2m/internal/lintkit"
	"vc2m/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("vc2m-lint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON object instead of text")
	list := fs.Bool("list", false, "list the analyzers and exit")
	dir := fs.String("dir", ".", "directory to resolve package patterns from (inside the module)")
	tests := fs.Bool("tests", false, "also analyze _test.go files (in-package and external test packages)")
	only := fs.String("only", "", "comma-separated analyzer names to run (overrides the per-analyzer flags)")
	baselinePath := fs.String("baseline", "", "baseline file of grandfathered findings; matching diagnostics do not fail the run")
	writeBaseline := fs.String("write-baseline", "", "write the surviving diagnostics to this baseline file and exit 0")
	sarifPath := fs.String("sarif", "", "also write the result as SARIF v2.1.0 to this file")
	enabled := map[string]*bool{}
	for _, a := range lint.All() {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer")
	}
	logCfg := obs.LogFlags(fs, "warn")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	lg, err := logCfg.Build(os.Stderr, obs.GetBuildInfo().LogAttrs()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-lint:", err)
		return 2
	}
	lg.Debug("starting", "cmd", "vc2m-lint")

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var analyzers []*lintkit.Analyzer
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "vc2m-lint: unknown analyzer %q (see -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	} else {
		for _, a := range lint.All() {
			if *enabled[a.Name] {
				analyzers = append(analyzers, a)
			}
		}
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(os.Stderr, "vc2m-lint: every analyzer is disabled")
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lintkit.NewLoader(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-lint:", err)
		return 2
	}
	loader.IncludeTests = *tests
	pkgs, err := loader.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-lint:", err)
		return 2
	}

	res := lintkit.RunAnalyzers(pkgs, analyzers)
	if cwd, err := os.Getwd(); err == nil {
		res.RelativizeFiles(cwd)
	}

	if *writeBaseline != "" {
		b := lintkit.NewBaseline(res)
		if err := b.Save(*writeBaseline); err != nil {
			fmt.Fprintln(os.Stderr, "vc2m-lint:", err)
			return 2
		}
		fmt.Printf("vc2m-lint: wrote %d baseline entr%s to %s\n",
			len(b.Entries), plural(len(b.Entries), "y", "ies"), *writeBaseline)
		return 0
	}

	var stale []lintkit.BaselineEntry
	if *baselinePath != "" {
		b, err := lintkit.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vc2m-lint:", err)
			return 2
		}
		stale = res.ApplyBaseline(b)
		for _, e := range stale {
			fmt.Fprintf(os.Stderr, "vc2m-lint: stale baseline entry: %s [%s] %q (count %d) — tighten %s\n",
				e.File, e.Analyzer, e.Message, e.Count, *baselinePath)
		}
	}

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vc2m-lint:", err)
			return 2
		}
		if err := res.WriteSARIF(f, analyzers); err != nil {
			_ = f.Close()
			fmt.Fprintln(os.Stderr, "vc2m-lint:", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "vc2m-lint:", err)
			return 2
		}
	}

	if *jsonOut {
		if err := res.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "vc2m-lint:", err)
			return 2
		}
	} else if err := res.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-lint:", err)
		return 2
	}
	if len(res.Diagnostics) > 0 || len(stale) > 0 {
		return 1
	}
	return 0
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
