# vC2M build & reproduction targets. Everything is stdlib Go; no network
# access is required.

GO ?= go

.PHONY: all build vet fmtcheck fma-check lint lint-tests lint-sarif test bench bench-smoke bench-check churn-bench fuzz-smoke e2e-smoke race cover ci determinism report-smoke server-smoke obs-smoke paper paper-smoke examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails (listing the offenders) if any file is not gofmt-clean.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# No fused multiply-add in vc2m code: cross-build every command for arm64
# (offline; the toolchain builds std from GOROOT), disassemble it, and fail
# on any FMADD/FMSUB/FNMADD/FNMSUB in a vc2m/ or main. symbol. arm64's
# compiler fuses x*y + z unless the product is rounded with float64(...),
# which would change the last bit of results against amd64. This reads the
# instructions only; no emulator runs the arm64 binaries, so their output
# itself is not verified.
fma-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	GOOS=linux GOARCH=arm64 $(GO) build -o $$tmp/ ./cmd/... || exit 1; \
	total=0; \
	for bin in $$tmp/*; do \
		hits=$$($(GO) tool objdump $$bin | awk '/^TEXT /{sym=$$2} \
			/\t(FMADD|FMSUB|FNMADD|FNMSUB)[DS] / && sym ~ /^(vc2m\/|main\.)/ {print "  " sym " " $$1 " " $$4}'); \
		if [ -n "$$hits" ]; then \
			n=$$(printf '%s\n' "$$hits" | wc -l); total=$$((total+n)); \
			echo "fma-check: $$(basename $$bin): $$n fused instruction(s):"; \
			printf '%s\n' "$$hits"; \
		fi; \
	done; \
	if [ $$total -ne 0 ]; then echo "fma-check: $$total fused instruction(s) in vc2m code"; exit 1; fi; \
	echo "fma-check: no fused multiply-add in vc2m code on arm64 ($$(ls $$tmp | wc -l) commands)"

# Domain-invariant static analysis (determinism, time units, nil-safe
# sinks, float equality, lock discipline, context flow, close/flush
# hygiene, stage-vocabulary drift). Fails on any unsuppressed diagnostic;
# see DESIGN.md for the analyzer list and the //vc2m: suppression
# directives.
lint:
	$(GO) run ./cmd/vc2m-lint ./...

# The same gate over _test.go files too, with the committed baseline
# (.vc2m-lint-baseline.json) absorbing reviewed pre-existing debt. New
# findings — in test helpers as much as in product code — still fail.
lint-tests:
	$(GO) run ./cmd/vc2m-lint -tests -baseline .vc2m-lint-baseline.json ./...

# lint-tests plus a SARIF v2.1.0 log (results/lint.sarif) for CI artifact
# upload and code-host ingestion. Baselined findings carry SARIF
# suppressions, so viewers show them as known debt rather than new
# failures. The log lands under results/ with the other generated
# artifacts and is gitignored.
lint-sarif:
	@mkdir -p results
	$(GO) run ./cmd/vc2m-lint -tests -baseline .vc2m-lint-baseline.json -sarif results/lint.sarif ./...

test:
	$(GO) test ./...

# Reduced-scale regeneration of every table/figure as benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark — catches bit-rot in the bench
# harnesses without paying for a real measurement run.
bench-smoke:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

# Quick run of the vc2m-bench macro suite, schema-checked against the
# newest committed baseline under results/ — catches renamed or dropped
# benchmarks without caring about machine-dependent values. See
# EXPERIMENTS.md, "Benchmarking and performance regression". Set
# BENCH_OUT=<dir> to keep the report (CI uploads it as an artifact);
# unset, it goes to a temp dir.
bench-check:
	@out="$(BENCH_OUT)"; if [ -z "$$out" ]; then \
		out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; fi; \
	mkdir -p "$$out"; \
	base=$$(ls results/BENCH_*.json 2>/dev/null | sort | tail -1); \
	if [ -z "$$base" ]; then echo "no committed BENCH_*.json baseline under results/"; exit 1; fi; \
	$(GO) run ./cmd/vc2m-bench -quick -out "$$out" -check "$$base"

# Churn smoke: the sustained-churn benchmark pair at smoke size — drives
# the incremental warm-start path end to end (admit, evict, warm place,
# repack) against its from-scratch baseline and checks both entries land
# in the report with baselines attached. Values at this size are
# meaningless; the committed BENCH_*.json carries the real measurement.
# Set BENCH_OUT=<dir> to keep the report (CI uploads it as an artifact).
churn-bench:
	@out="$(BENCH_OUT)"; if [ -z "$$out" ]; then \
		out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; fi; \
	mkdir -p "$$out"; \
	$(GO) run ./cmd/vc2m-bench -quick -only churn -out "$$out" || exit 1; \
	f=$$(ls "$$out"/BENCH_*.json | sort | tail -1); \
	for name in churn/incremental-existing-csa churn/incremental-flattening; do \
		grep -q "\"$$name\"" "$$f" || \
			{ echo "churn-bench: $$name missing from report"; exit 1; }; \
	done; \
	grep -q '"from-scratch"' "$$f" || \
		{ echo "churn-bench: no from-scratch baseline recorded"; exit 1; }; \
	echo "churn-bench: smoke report complete, both churn entries carry from-scratch baselines"

# A few hundred iterations of every native fuzz target — exercises the
# harnesses and seed corpora; real fuzzing sessions use
# `go test -fuzz=<target> -fuzztime=5m <pkg>`.
fuzz-smoke:
	@set -e; \
	for tgt in internal/model:FuzzDecodeSystem internal/model:FuzzDecodeAllocation \
	           internal/model:FuzzResourceTableJSON internal/report:FuzzReportMarshal \
	           internal/timeunit:FuzzMillisConversions internal/timeunit:FuzzTickRoundTrips \
	           internal/timeunit:FuzzGCDLCM internal/workload:FuzzGenerate \
	           internal/alloc:FuzzIncrementalChurn internal/alloc:FuzzHyperLevelMatchesReference \
	           internal/obs:FuzzPromParse \
	           internal/csa:FuzzMinBudget internal/csa:FuzzExistingVCPUMatchesReference \
	           internal/server:FuzzSubmitRequestJSON \
	           internal/wirejson:FuzzScannerScalars internal/wirejson:FuzzFloat64s \
	           internal/wirejson:FuzzAppendString internal/wirejson:FuzzAppendFloats \
	           internal/kmeans:FuzzCluster \
	           internal/rngutil:FuzzRNGMatchesMathRand; do \
		pkg=$${tgt%%:*}; fn=$${tgt##*:}; \
		$(GO) test -run=^$$ -fuzz="^$$fn$$" -fuzztime=300x ./$$pkg || exit 1; \
	done

# The end-to-end benchmark's own tests: its quick served run, determinism
# and BENCHMARK.json spec checks. e2ebench/ is a module of its own, so
# `go test ./...` at the root never reaches it.
e2e-smoke:
	$(GO) -C e2ebench test ./...

# Everything CI runs, locally. The workflow (.github/workflows/ci.yml)
# calls these same targets step by step, so this list is the single
# source of truth for what a green build means.
ci: build vet fmtcheck fma-check lint lint-sarif test race bench-smoke bench-check churn-bench fuzz-smoke e2e-smoke determinism report-smoke server-smoke obs-smoke paper-smoke

race:
	$(GO) test -race ./...

# Determinism smoke: the same fully seeded simulation run twice must
# produce byte-identical stdout and byte-identical trace JSONL.
determinism:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	flags="-gen-util 1.0 -gen-seed 7 -mode flattening -simulate 2200"; \
	$(GO) run ./cmd/vc2m-sim $$flags -trace-jsonl $$tmp/a.jsonl > $$tmp/a.out && \
	$(GO) run ./cmd/vc2m-sim $$flags -trace-jsonl $$tmp/b.jsonl > $$tmp/b.out && \
	diff $$tmp/a.out $$tmp/b.out && diff $$tmp/a.jsonl $$tmp/b.jsonl && \
	echo "determinism: two seeded runs byte-identical"

# Report smoke: a seeded run must produce a schema-valid report JSON
# (validated by the Go test), an explainable decision trail, and a fully
# self-contained HTML page (no external URLs — it must open offline).
report-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/vc2m-sim -gen-util 1.0 -gen-seed 7 -mode flattening \
		-simulate 2200 -report-out $$tmp/run.json > /dev/null && \
	$(GO) run ./cmd/vc2m-report generate -in $$tmp/run.json -html $$tmp/run.html && \
	$(GO) run ./cmd/vc2m-report explain -in $$tmp/run.json t1 > /dev/null && \
	if grep -Eq 'https?://' $$tmp/run.html; then \
		echo "report-smoke: HTML is not self-contained (external URL found)"; exit 1; fi && \
	VC2M_REPORT_SMOKE=$$tmp/run.json $(GO) test -count=1 -run '^TestReportSmoke$$' ./internal/report && \
	echo "report-smoke: report JSON valid, HTML self-contained"

# Server smoke: boot vc2m-server on an ephemeral port, drive the seeded
# reference run through the client path (vc2m-sim -server), require the
# served report to be byte-identical to the same-seed in-process run and
# schema-valid; submit the six figure sweeps through the other client
# (vc2m-paper -server) and require six schema-valid report files; scrape
# /metrics through the strict parser (including the trace exemplars on the
# stage-latency buckets), replay churn live, watch a run's lifecycle on the
# SSE event stream and fetch the self-contained /dashboard
# (TestEventLifecycleLive), snapshot the fleet with vc2m-top -once, then
# SIGTERM the daemon and require a clean (exit 0) graceful drain.
server-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/bin/ ./cmd/vc2m-server ./cmd/vc2m-sim ./cmd/vc2m-paper ./cmd/vc2m-report ./cmd/vc2m-top || exit 1; \
	$$tmp/bin/vc2m-server -addr 127.0.0.1:0 -ready-file $$tmp/addr >$$tmp/server.log 2>&1 & pid=$$!; \
	up=; i=0; while [ $$i -lt 100 ]; do \
		if [ -s $$tmp/addr ]; then up=1; break; fi; i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$up" ]; then echo "server-smoke: daemon did not come up"; \
		cat $$tmp/server.log; kill $$pid 2>/dev/null; exit 1; fi; \
	addr=$$(cat $$tmp/addr); \
	{ $$tmp/bin/vc2m-sim -server "http://$$addr" -gen-util 1.0 -gen-seed 7 \
		-simulate 1100 -report-out $$tmp/served.json >/dev/null && \
	  $$tmp/bin/vc2m-sim -gen-util 1.0 -gen-seed 7 -simulate 1100 \
		-report-out $$tmp/local.json >/dev/null 2>&1 && \
	  cmp $$tmp/served.json $$tmp/local.json && \
	  $$tmp/bin/vc2m-report generate -in $$tmp/served.json >/dev/null; } || \
		{ echo "server-smoke: served run failed or diverged"; \
		  cat $$tmp/server.log; kill $$pid 2>/dev/null; exit 1; }; \
	$$tmp/bin/vc2m-paper -server "http://$$addr" -tasksets 1 -step 0.5 -out $$tmp/paper 2>$$tmp/paper.log || \
		{ echo "server-smoke: vc2m-paper -server failed"; cat $$tmp/paper.log; \
		  cat $$tmp/server.log; kill $$pid 2>/dev/null; exit 1; }; \
	for f in fig2a fig2b fig2c fig3a fig3b fig3c; do \
		$$tmp/bin/vc2m-report generate -in $$tmp/paper/$$f.report.json >/dev/null || \
			{ echo "server-smoke: served $$f.report.json missing or invalid"; \
			  kill $$pid 2>/dev/null; exit 1; }; \
	done; \
	VC2M_PROM_URL="http://$$addr/metrics" \
		$(GO) test -count=1 -run '^TestPromScrapeLive$$' ./internal/obs || \
		{ echo "server-smoke: live /metrics scrape failed"; \
		  cat $$tmp/server.log; kill $$pid 2>/dev/null; exit 1; }; \
	VC2M_SERVER_URL="http://$$addr" \
		$(GO) test -count=1 -run '^TestChurnRoundTripLive$$' ./internal/server || \
		{ echo "server-smoke: live churn round trip failed"; \
		  cat $$tmp/server.log; kill $$pid 2>/dev/null; exit 1; }; \
	VC2M_SERVER_URL="http://$$addr" \
		$(GO) test -count=1 -run '^TestEventLifecycleLive$$' ./internal/server || \
		{ echo "server-smoke: live SSE lifecycle / dashboard check failed"; \
		  cat $$tmp/server.log; kill $$pid 2>/dev/null; exit 1; }; \
	$$tmp/bin/vc2m-top -url "http://$$addr" -once > $$tmp/top.out || \
		{ echo "server-smoke: vc2m-top -once failed"; \
		  cat $$tmp/server.log; kill $$pid 2>/dev/null; exit 1; }; \
	grep -q "vc2m-top" $$tmp/top.out && grep -q "events" $$tmp/top.out || \
		{ echo "server-smoke: vc2m-top snapshot incomplete"; cat $$tmp/top.out; \
		  kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; \
	if wait $$pid; then :; else echo "server-smoke: daemon did not drain cleanly"; \
		cat $$tmp/server.log; exit 1; fi; \
	echo "server-smoke: served report byte-identical to in-process run; six served paper sweep reports valid; live /metrics parser-clean with stage exemplars; churn round trip matches in-process replay; SSE lifecycle ordered and dashboard self-contained; vc2m-top snapshot ok; daemon drained cleanly"

# Observability smoke: a seeded vc2m-sim run exporting wall-clock spans
# must produce exactly the committed stage set (durations vary run to
# run; the instrumented pipeline's stages do not). Regenerate the golden
# with VC2M_UPDATE_GOLDEN=1 after intentionally adding or removing spans.
obs-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/bin/ ./cmd/vc2m-sim || exit 1; \
	$$tmp/bin/vc2m-sim -gen-util 1.0 -gen-seed 7 -mode existing -simulate 2200 \
		-spans-out $$tmp/spans.json > /dev/null || exit 1; \
	VC2M_SPANS_FILE=$$tmp/spans.json VC2M_UPDATE_GOLDEN=$(UPDATE_GOLDEN) \
		$(GO) test -count=1 -run '^TestSpanGoldenStages$$' ./internal/obs && \
	echo "obs-smoke: span stage set matches golden"

cover:
	$(GO) test -cover ./...

# Full paper-scale reproduction (about 20 s on two cores); writes text
# tables and CSVs into results/. Serial, so fig4's and Tables 1-2's wall
# clock times are uncontended; every other output is identical at any
# -parallel.
paper:
	$(GO) run ./cmd/vc2m-paper -out results -parallel 1

# Paper smoke: the full vc2m-paper run at smoke size must write all 22
# text tables and CSVs, and each subcommand must run once and exit 0.
# Values at this size are meaningless; `make paper` makes the real ones.
paper-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/vc2m-paper ./cmd/vc2m-paper || exit 1; \
	$$tmp/vc2m-paper -tasksets 1 -step 0.5 -out $$tmp/out 2>$$tmp/log || \
		{ echo "paper-smoke: full run failed"; cat $$tmp/log; exit 1; }; \
	for f in fig2a fig2b fig2c fig3a fig3b fig3c fig4 sec33; do \
		for ext in txt csv; do test -s $$tmp/out/$$f.$$ext || \
			{ echo "paper-smoke: $$f.$$ext missing"; exit 1; }; done; \
	done; \
	for f in tables12.txt table1.csv vmcount.txt partition-sweep.txt regperiod-sweep.txt online.txt; do \
		test -s $$tmp/out/$$f || { echo "paper-smoke: $$f missing"; exit 1; }; \
	done; \
	$$tmp/vc2m-paper sweep -min 0.4 -max 1.2 -step 0.4 -tasksets 2 -quiet >/dev/null && \
	$$tmp/vc2m-paper fig4 -min 0.4 -max 0.8 -step 0.4 -tasksets 2 >/dev/null 2>&1 && \
	$$tmp/vc2m-paper tables -horizon 100 >/dev/null && \
	$$tmp/vc2m-paper isolation -ops 5000 >/dev/null || \
		{ echo "paper-smoke: a subcommand failed"; exit 1; }; \
	echo "paper-smoke: full run wrote all 22 outputs; sweep, fig4, tables and isolation ran"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/automotive
	$(GO) run ./examples/isolation
	$(GO) run ./examples/regulation
	$(GO) run ./examples/wellregulated
	$(GO) run ./examples/measurement
	$(GO) run ./examples/admission
	$(GO) run ./examples/churn

clean:
	$(GO) clean ./...
