package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vc2m/client"
	"vc2m/internal/metrics"
	"vc2m/internal/obs"
	"vc2m/internal/server"
)

// Serving shape: two workers, and at most two client goroutines on one
// keep-alive transport capped at two connections — nproc on the 2-vCPU
// host the bounds were set on.
const (
	serverWorkers  = 2
	maxConns       = 2
	requestTimeout = 2 * time.Minute
	maxFailureMsgs = 20
)

// served is one in-process server behind an httptest listener, with the
// client side that drives it through the real HTTP API.
type served struct {
	srv *server.Server
	hs  *httptest.Server
	tr  *http.Transport
	hc  *http.Client
	c   *client.Client

	stopOnce sync.Once
}

func startServer(ctx context.Context) (*served, error) {
	srv := server.New(server.Config{Workers: serverWorkers})
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	hc := &http.Client{Transport: tr, Timeout: requestTimeout}
	s := &served{srv: srv, hs: hs, tr: tr, hc: hc, c: client.New(hs.URL, hc)}
	if err := s.c.Health(ctx); err != nil {
		s.stop()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return s, nil
}

// stop drains the server and closes the listener and idle connections.
// Calls after the first do nothing.
func (s *served) stop() {
	s.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.srv.Shutdown(ctx) // every run has finished; a drain timeout only cancels leftovers
		s.tr.CloseIdleConnections()
		s.hs.Close()
	})
}

// post submits a pre-encoded body and returns the run ID. client.Submit
// would re-encode the request on every call; the timed loop must not.
func (s *served) post(ctx context.Context, path string, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	var sr server.SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return "", fmt.Errorf("POST %s: %w", path, err)
	}
	return sr.ID, nil
}

// submitWait submits and waits for the run to finish done.
func (s *served) submitWait(ctx context.Context, path string, body []byte, parent *obs.Span) (server.RunStatus, error) {
	sp := parent.Child(spanSubmit)
	id, err := s.post(ctx, path, body)
	sp.End()
	if err != nil {
		return server.RunStatus{}, err
	}
	sp = parent.Child(spanWait)
	st, err := s.c.Wait(ctx, id)
	sp.End()
	if err != nil {
		return st, fmt.Errorf("wait %s: %w", id, err)
	}
	if st.State != server.StateDone {
		return st, fmt.Errorf("run %s finished %s: %s", id, st.State, st.Error)
	}
	return st, nil
}

// roundTrip is one closed-loop request: submit, wait, fetch the report.
func (s *served) roundTrip(ctx context.Context, path string, body []byte, parent *obs.Span) ([]byte, error) {
	st, err := s.submitWait(ctx, path, body, parent)
	if err != nil {
		return nil, err
	}
	sp := parent.Child(spanFetch)
	defer sp.End()
	return s.c.ReportBytes(ctx, st.ID)
}

// repResult is one rep's raw measurements. Times are as measured; Scale
// is the host normalization factor (see setScales).
type repResult struct {
	Index         int       `json:"index"`
	ProbeBeforeMs float64   `json:"probe_before_ms"`
	ProbeAfterMs  float64   `json:"probe_after_ms"`
	Scale         float64   `json:"scale"`
	SetupS        float64   `json:"setup_s"`
	WallS         float64   `json:"wall_s"`
	CPUS          float64   `json:"cpu_s"`
	GCCPUShare    float64   `json:"gc_cpu_share"`
	AllocMB       float64   `json:"alloc_mb"`
	HeapMB        float64   `json:"retained_heap_mb"`
	Units         int       `json:"units"`
	Runs          int       `json:"runs"`
	RequestKB     float64   `json:"request_kb"`
	ReportKB      float64   `json:"report_kb"`
	LatencyMs     []float64 `json:"latency_ms"`
	// Values are the rep's normalized end-to-end metrics.
	Values map[string]float64 `json:"values"`
	// Warmup marks a workload's first rep when later reps exist. It runs
	// in a cold process (heap growth, first connections, cold caches), a
	// cost a long-lived server pays once, so the metrics leave it out.
	Warmup bool `json:"warmup,omitempty"`

	attempted, failed int
	failures          []string
	// Sample checks: reference counters and digest of the checked bytes.
	counters map[string]int64
	digest   string
	// Traced rep only: every served report and the base run IDs.
	reports [][]byte
	baseIDs []string
	inputs  *repInputs
	total   time.Duration // whole rep, probes and checks included
}

func (r *repResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailureMsgs {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// runRep runs one rep on a fresh server: probe, set-up (generate and
// encode the inputs, start the server, wait for /healthz, serve the churn
// base runs or the sweep check), the timed closed loop, heap accounting,
// drain, probe, then the in-process output checks. With tr non-nil it is
// the traced rep: every request gets a request span tree and every report
// is kept for the replay.
func runRep(ctx context.Context, w workloadSpec, seed int64, index int, quick bool, tr *obs.Trace) (*repResult, error) {
	repStart := time.Now() //vc2m:wallclock benchmark timing
	res := &repResult{Index: index, ProbeBeforeMs: probeMs()}

	setupStart := time.Now() //vc2m:wallclock benchmark timing
	in, err := makeInputs(w, seed, index, quick)
	if err != nil {
		return nil, err
	}
	s, err := startServer(ctx)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	for _, body := range in.bases {
		st, err := s.submitWait(ctx, "/v1/runs", body, nil)
		if err != nil {
			return nil, fmt.Errorf("churn base run: %w", err)
		}
		if st.Schedulable == nil || !*st.Schedulable {
			return nil, fmt.Errorf("churn base run %s was rejected by the server", st.ID)
		}
		res.baseIDs = append(res.baseIDs, st.ID)
	}
	var checkServed []byte
	if in.check != nil {
		if checkServed, err = s.roundTrip(ctx, "/v1/runs", in.check, nil); err != nil {
			return nil, fmt.Errorf("sweep check: %w", err)
		}
	}
	res.SetupS = time.Since(setupStart).Seconds() //vc2m:wallclock benchmark timing

	paths := make([]string, len(in.bodies))
	for i := range paths {
		paths[i] = "/v1/runs"
		if in.baseOf != nil {
			paths[i] = "/v1/runs/" + res.baseIDs[in.baseOf[i]] + "/churn"
		}
	}
	keep := min(sampleChecked, len(in.bodies))
	if tr != nil {
		keep = len(in.bodies)
	}
	reports := make([][]byte, len(in.bodies))
	errs := make([]error, len(in.bodies))
	lat := make([]time.Duration, len(in.bodies))
	var reportBytes atomic.Int64

	heapBefore, allocBefore := heapAfterGC()
	before := sampleCPU()
	start := time.Now() //vc2m:wallclock benchmark timing
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(in.bodies) {
					return
				}
				var root *obs.Span
				if tr != nil {
					root = tr.StartSpan(spanRequest)
					root.SetAttr("workload", w.name)
					root.SetInt("req", int64(i))
				}
				t0 := time.Now() //vc2m:wallclock benchmark timing
				data, err := s.roundTrip(ctx, paths[i], in.bodies[i], root)
				lat[i] = time.Since(t0) //vc2m:wallclock benchmark timing
				root.End()
				if err == nil && w.simulateMs > 0 {
					err = checkNoMisses(data)
				}
				errs[i] = err
				reportBytes.Add(int64(len(data)))
				if i < keep {
					reports[i] = data
				}
			}
		}()
	}
	wg.Wait()
	res.WallS = time.Since(start).Seconds() //vc2m:wallclock benchmark timing
	after := sampleCPU()
	heapAfter, allocAfter := heapAfterGC()
	res.HeapMB = (float64(heapAfter) - float64(heapBefore)) / (1 << 20)
	res.AllocMB = float64(allocAfter-allocBefore) / (1 << 20)
	res.CPUS = after.cpu - before.cpu
	if busy := after.busy - before.busy; busy > 0 {
		res.GCCPUShare = (after.gc - before.gc) / busy
	}
	s.stop()
	res.ProbeAfterMs = probeMs()

	res.Units = in.units
	res.Runs = len(in.bodies)
	var reqBytes int
	for _, b := range in.bodies {
		reqBytes += len(b)
	}
	res.RequestKB = float64(reqBytes) / 1024 / float64(len(in.bodies))
	res.ReportKB = float64(reportBytes.Load()) / 1024 / float64(len(in.bodies))
	for i, d := range lat {
		res.LatencyMs = append(res.LatencyMs, d.Seconds()*1000)
		res.attempted++
		if errs[i] != nil {
			res.fail("%s request %d: %v", w.name, i, errs[i])
		}
	}
	res.check(w, in, reports[:min(sampleChecked, len(reports))], checkServed)
	if tr != nil {
		res.reports = reports
		res.inputs = in
	}
	res.total = time.Since(repStart) //vc2m:wallclock benchmark timing
	return res, nil
}

// check rebuilds the sampled requests' reports in-process and compares
// them byte for byte with the served ones: the first sampleChecked
// requests of cold and churn reps, the set-up check sweep of sweep reps.
// Each mismatch, and each csa re-derivation that differs from
// alloc.VMLevel's, is a failure.
func (r *repResult) check(w workloadSpec, in *repInputs, served [][]byte, checkServed []byte) {
	rp := &replayer{rec: metrics.New()}
	h := sha256.New()
	compare := func(what string, got []byte, want []byte, err error) {
		r.attempted++
		switch {
		case err != nil:
			r.fail("%s %s: in-process reference: %v", w.name, what, err)
		case !bytes.Equal(got, want):
			r.fail("%s %s: served report (%d bytes) differs from the in-process reference (%d bytes)", w.name, what, len(got), len(want))
		}
		h.Write(want)
	}
	if w.kind == server.KindSweep {
		// A full served sweep costs a full in-process sweep to check; the
		// set-up sweep checks the same code path at a fraction of it.
		want, err := rp.sweep(nil, in.check)
		compare("check sweep", checkServed, want, err)
		served = nil
	}
	for i, got := range served {
		if got == nil {
			continue // the request itself failed and is already counted
		}
		var want []byte
		var err error
		if w.kind == server.KindChurn {
			b := in.baseOf[i]
			want, err = rp.churn(nil, in.bodies[i], r.baseIDs[b], in.baseAllocs[b])
		} else {
			want, _, err = rp.run(nil, in.bodies[i])
		}
		compare("request "+strconv.Itoa(i), got, want, err)
	}
	for _, m := range rp.mismatches {
		r.fail("%s: %s", w.name, m)
	}
	r.counters = replayCounters(rp)
	r.digest = hex.EncodeToString(h.Sum(nil))
}

// checkNoMisses requires a served simulated report to record zero deadline
// misses: an accepted allocation must never miss under hypersim. It scans
// for the sim section's "missed" field instead of decoding the whole
// document, to stay cheap inside the timed loop.
func checkNoMisses(doc []byte) error {
	sim := bytes.Index(doc, []byte(`"sim": {`))
	if sim < 0 {
		if bytes.Contains(doc, []byte(`"rejection": {`)) {
			return nil // rejected: nothing was simulated
		}
		return fmt.Errorf("accepted run has no sim section")
	}
	key := []byte(`"missed": `)
	at := bytes.Index(doc[sim:], key)
	if at < 0 {
		return fmt.Errorf("sim section has no missed count")
	}
	rest := doc[sim+at+len(key):]
	end := bytes.IndexAny(rest, ",\n}")
	if end < 0 {
		return fmt.Errorf("malformed missed count")
	}
	if n := string(rest[:end]); n != "0" {
		return fmt.Errorf("accepted allocation missed %s deadlines in hypersim", n)
	}
	return nil
}

// cpuSample is the process CPU time the timed phase is measured between.
type cpuSample struct {
	cpu      float64 // user+sys seconds (getrusage)
	gc, busy float64 // runtime CPU-class estimates, seconds
}

func sampleCPU() cpuSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cls := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(cls)
	return cpuSample{
		cpu:  tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		gc:   cls[0].Value.Float64(),
		busy: cls[1].Value.Float64() - cls[2].Value.Float64(),
	}
}

// heapAfterGC collects garbage and returns the heap still in use and the
// cumulative bytes allocated. The timed phase's CPU samples are taken
// inside these calls, so the forced collections' CPU is not charged to it.
func heapAfterGC() (inuse, totalAlloc uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse, ms.TotalAlloc
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
