// Command e2ebench is vc2m's end-to-end benchmark of the served path:
// submit a run over HTTP, wait for its verdict, fetch its report. It
// starts an in-process internal/server (server.New + httptest) for every
// rep and drives it through the real HTTP API from the same process, then
// replays the same inputs in-process to attribute the time to layers.
//
// It is a module of its own so that it builds from the repository's
// source without joining the repository's test suite. Run it from the
// repository root:
//
//	bash e2ebench/run.sh --workload cold-existing --seed 1 --seconds 25 --trace 0
//	bash e2ebench/run.sh --seed 1 --trace 1 --spans spans.json --out e2e.json
//	bash e2ebench/run.sh --check parent.json --compare change.json
//
// run.sh builds the command into .bench_build (or $CARGO_TARGET_DIR) and
// runs it. The flags:
//
//   - -workload W runs one workload; without it all four run, their reps
//     interleaved round-robin so a slow host phase hits every workload.
//   - -seed N generates every input; the same seed sends the same requests.
//   - -seconds S bounds each workload's reps: another rep starts only while
//     it still fits (at least one rep runs).
//   - -trace 1 adds, per workload, one traced served rep and an in-process
//     replay of its inputs, and prints the per-layer metrics instead of the
//     end-to-end ones. -spans FILE writes the spans as a Chrome trace (open
//     it in ui.perfetto.dev).
//   - -out FILE writes the detailed report: per-rep raw values, probe times,
//     the host fingerprint, replay counters and report digests.
//   - -check A -compare B compares two detailed reports (nothing is run).
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; each metric carries its unit.
// Progress, the per-layer tables, counters and digests go to standard
// error. The command exits 1 when any request or output check failed, after
// printing that line.
//
// # Workloads
//
// Every workload is a closed loop: a client sends its next request only
// after the previous report is in hand, as an orchestrator placing a VM
// waits for the verdict before it acts. Clients share one keep-alive
// transport capped at two connections; the server runs two workers.
// GOMAXPROCS is left at the CPU count. Request bodies are generated with
// workload.Generate and JSON-encoded during set-up, so the timed loop
// spends no CPU on load generation. Each rep uses a fresh server, because
// the registry retains every run: fixed request counts per rep keep
// retained_heap_mb comparable between commits, and memory stays bounded.
//
//   - cold-existing: 200 distinct systems per rep (platform A, uniform,
//     reference utilization 1.2, two VMs), mode existing, 2 clients. The
//     only served workload where existing-CSA interface derivation
//     (csa.minBudgetForDemand) is a large share of each request.
//   - cold-flattening-sim: 300 systems per rep from the same generator,
//     mode flattening, simulate_ms 1100, 2 clients. csa derives nothing
//     here, so request decode, report encode, registry retention and
//     hypersim dominate: the predicted no-change control for csa changes
//     and the main workload for wire and serving changes.
//   - churn-existing: 400 churn requests per rep, 2 clients, spread over 50
//     retained base runs of twelve one-task VMs each (existing CSA). Each
//     request carries eight events; event i departs base VM i and admits a
//     fresh one-task VM at target utilization 1/12. It exercises
//     alloc.Incremental warm placement and repack against a retained base,
//     so a cold-path gain that costs the warm path shows here. Fifty bases
//     rather than one average out how often a fleet needs repacks.
//   - sweep-paper: one sweep per rep (platform A, uniform, utilization
//     0.2..2.0 step 0.1, 50 tasksets per point as in the paper, parallel 2,
//     all five paper solutions), 1 client. The reproduction user's
//     workload: compute-bound, server and wire nearly idle, and the only
//     one that runs Baseline and Evenly-partition.
//
// # End-to-end metrics
//
// Reported per workload from the untraced reps; the bound is the share by
// which a change may worsen the parent's median before it is a regression.
//
//	metric            unit  better  bound  definition
//	throughput_per_s  1/s   higher  20%    median over reps of units per second (requests; churn events; tasksets)
//	latency_p50_ms    ms    lower   20%    submit to report bytes in hand, pooled over reps
//	latency_p99_ms    ms    lower   25%    the same, 99th percentile (sweep-paper: fewer than ten samples, so near the slowest rep)
//	cpu_ms_per_op     ms    lower   20%    process user+sys CPU (getrusage) per unit, median over reps
//	retained_heap_mb  MB    lower   15%    median over reps of HeapInuse after GC at rep end minus before
//	setup_s           s     lower   25%    median over reps of the set-up time (below)
//
// The timing bounds are as wide as the shared 2-vCPU reference host
// requires: its speed swings by up to 2x within seconds, and after host
// normalization the medians of ten runs with different seeds still spread
// by about 2-11% (IQR over median). Retained heap depends on the inputs
// only: about 1% on the cold workloads and the sweep, 4-5% on
// churn-existing, whose repacks make report sizes heavy-tailed.
//
// Set-up is everything a rep does before its timed loop: generating and
// encoding its inputs, server.New to the first /healthz answer, and the
// churn base runs or the sweep check. A failed request, a run that does not
// finish done, and a failed output check each count in failed; a failure
// makes correct false. There is no fail-ratio metric: on a passing run it
// is 0, and every reported metric must be nonzero.
//
// # Host normalization
//
// All timing metrics are host-normalized. Before and after every rep the
// command runs a probe that uses only the standard library: encoding/json
// round trips plus float64 arithmetic, about 20 ms, as six rounds of many small
// tasks spread over all CPUs, reported as six times the median round. It
// measures the host's aggregate CPU speed, which is what the served
// workload runs at with both CPUs busy; a single-threaded probe reads
// whichever vCPU it lands on, and on a shared host those are often
// unequally contended. Each rep's times are scaled by probeRefMs /
// probe_ms, where probe_ms is the median of the probes of that rep and of
// the reps just before and after it in run order: a host phase that slows
// a rep slows its neighbours' probes too and cancels out, while a probe
// stalled by a momentary preemption is outvoted. probeRefMs is fixed, so
// values compare across runs. The raw values, the per-rep probe times and
// the host fingerprint (Go version, GOOS/GOARCH, CPU count, GOMAXPROCS,
// CPU model, commit) are kept in the detailed report.
//
// A workload's first rep runs in a cold process (heap growth, first
// connections, cold caches), a cost a long-lived server pays once; when
// later reps exist it is marked warmup and left out of the medians.
//
// # Output checks
//
// The first eight requests of every cold and churn rep are rebuilt
// in-process and must match the served report byte for byte; every sweep
// rep serves a small check sweep in set-up that must match an in-process
// sweep. The in-process reference runs each layer's public function the
// way internal/server does (see replayer), and re-derives every VCPU
// interface straight from package csa, which must equal alloc.VMLevel's.
// Every accepted cold-flattening-sim run must report zero deadline misses.
// The reference's counters and a SHA-256 digest of the checked bytes of
// rep 0 depend only on the seed and are printed, so runs and commits can be
// compared.
//
// # Per-layer metrics and the trace
//
// With -trace 1 the end-to-end numbers still come from the untraced reps.
// Then each workload serves one traced rep (rep 0's inputs) with a root
// span "request" (attribute req=i) and children server.submit, server.wait
// and server.fetch, timed from the client. The same inputs are then
// replayed serially in-process under roots named "replay": model.decode
// (json.Unmarshal into server.SubmitRequest plus Validate), alloc.vmlevel,
// alloc.hyper (alloc.HyperLevel on the same RNG stream, so the result
// equals the heuristic's), csa.derive (the re-derivation; alloc.vmlevel
// already contains this work), hypersim.run (vc2m.Simulate),
// alloc.incremental per churn event, experiment.solution.<slug> per paper
// solution call inside one experiment.RunSchedulability, report.build and
// report.encode. Every replayed report must equal the served one. Spans
// are the benchmark's own, around calls into each module; names reuse the
// obs.Stage* constants where they exist. Self time is a span's duration
// minus the part its children cover; the per-layer table prints count,
// total and p50 self time and share of replay time per layer.
//
// Times and counts are per timed request of the traced rep (a churn
// request is eight events; a sweep request is the whole sweep). Which
// end-to-end metric each layer should move, and where:
//
//	layer metric                                   should move                       on                             no change expected on
//	csa.derive_ms, csa.derive_calls,               throughput_per_s, latency_p50_ms  cold-existing, sweep-paper     cold-flattening-sim
//	  csa.sbf.evals, csa.minbudget.bisect_iters
//	model.decode_ms, server.submit_ms,             latency_p50_ms                    cold-flattening-sim,           sweep-paper
//	  server.request_kb                                                                cold-existing
//	report.build_ms, report.encode_ms,             latency_p50_ms                    cold workloads, churn-existing
//	  server.fetch_ms, server.report_kb
//	alloc.vmlevel_ms, alloc.hyper_ms,              throughput_per_s                  cold workloads, sweep-paper
//	  alloc.hyper.permutations, alloc.hyper.m_tried,
//	  alloc.schedulable_ratio
//	alloc.incremental_share,                       throughput_per_s                  churn-existing
//	  alloc.incremental.repack_ratio,
//	  alloc.incremental.admit_ratio
//	hypersim.run_share, hypersim.engine_steps      latency_p50_ms                    cold-flattening-sim
//	experiment.solution_share.<slug>               throughput_per_s                  sweep-paper
//	server.wait_ms, server.retained_kb_per_run,    retained_heap_mb;                 every workload (heap);
//	  runtime.gc_cpu_share, runtime.alloc_mb_per_op  throughput_per_s                 cold-flattening-sim (throughput)
//	obs.overhead_ratio                             throughput_per_s                  cold-flattening-sim
//
// Layers only some workloads reach (hypersim, alloc.incremental, the
// sweep's solutions) report their share of the replay's wall time in
// percent, which is 0 where the layer never runs; replay_ms gives the
// replay time per request to turn a share back into milliseconds.
// obs.overhead_ratio times vc2m.Allocate on up to eight of the replayed
// systems with provenance, metrics and spans all on, over all off.
// trace.overhead_ratio is the traced rep's normalized time per unit over
// the untraced reps' median, and host.probe_ms the run's median probe.
//
// This benchmark makes no performance claim; it is the baseline later
// changes are measured against. The v1 micro suite (cmd/vc2m-bench, make
// bench-check, make churn-bench) stays as it is.
package main
