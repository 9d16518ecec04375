package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vc2m/internal/obs"
)

// probeRefMs is the probe's median time on the host the bounds were set on
// (2-vCPU Intel Xeon, go1.24, linux/amd64). Every timing metric of a rep
// is scaled by probeRefMs / probe_ms, where probe_ms summarizes the probes
// run around the rep (see setScales), so a slow host phase that slows the
// rep also slows its probes and cancels out.
const probeRefMs = 20.0

// probeDoc is the JSON the probe round-trips: the shape of the wire
// documents the served path spends its time encoding.
type probeDoc struct {
	ID    string             `json:"id"`
	Items []probeItem        `json:"items"`
	Tags  map[string]float64 `json:"tags"`
}

type probeItem struct {
	ID     string    `json:"id"`
	Period float64   `json:"period_ms"`
	Table  []float64 `json:"table"`
}

// probeSink keeps the probe's results live so the compiler cannot drop
// the work.
var probeSink float64

// probeRounds is how many rounds the probe runs; probeMs reports
// probeRounds times the median round, so a preemption that stalls one
// round does not move it, while a host that is slow for the whole probe
// does.
const probeRounds = 6

// probeMs runs a fixed CPU workload that uses only the standard library,
// never repository code, so no change under test can move it: encoding/json
// round trips plus float64 arithmetic, about 20 ms. Each round hands many small
// tasks to GOMAXPROCS goroutines, so it measures the host's aggregate CPU
// speed, which is what the served workload (both CPUs busy) runs at. A
// single-threaded probe, or one with few large tasks, reads the slowest
// vCPU instead: on a shared host the vCPUs are often unequally contended.
// It collects garbage first, so the previous rep's heap cannot slow it.
// It returns milliseconds.
func probeMs() float64 {
	runtime.GC()
	procs := runtime.GOMAXPROCS(0)
	rounds := make([]float64, probeRounds)
	for r := range rounds {
		start := time.Now() //vc2m:wallclock the host probe measures wall time by design
		var next atomic.Int64
		var wg sync.WaitGroup
		accs := make([]float64, procs)
		for g := range accs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for next.Add(1) <= int64(probeTasks*procs) {
					accs[g] += probeTask()
				}
			}()
		}
		wg.Wait()
		rounds[r] = time.Since(start).Seconds() * 1000 //vc2m:wallclock
		for _, a := range accs {
			probeSink += a
		}
	}
	return probeRounds * median(rounds)
}

// probeTasks is the number of tasks per CPU in one probe round.
const probeTasks = 24

// probeTask is one probe task, about 0.15 ms on the reference host: a
// JSON round trip of a small nested document plus plain float64
// arithmetic. The mix follows the served path (wire encoding, budget-table
// arithmetic); transcendental math such as sin or log would read a
// neighbour's load on the shared floating-point units that the served
// path barely feels.
func probeTask() float64 {
	doc := probeDoc{ID: "probe", Tags: map[string]float64{"a": 1, "b": 2}}
	for i := 0; i < 6; i++ {
		item := probeItem{ID: "vcpu", Period: 100 + float64(i), Table: make([]float64, 60)}
		for j := range item.Table {
			item.Table[j] = 1 + float64(i*j)/7
		}
		doc.Items = append(doc.Items, item)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		panic(err) // a fixed in-memory document always encodes
	}
	var back probeDoc
	if err := json.Unmarshal(data, &back); err != nil {
		panic(err)
	}
	x := back.Items[2].Table[5]
	for i := 1; i < 6000; i++ {
		f := float64(i)
		x = math.Max(x*0.999+f/(f+1), math.Floor(f*0.5)*0.001)
	}
	return x
}

// host fingerprints the machine a report was measured on.
type host struct {
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty,omitempty"`
	ProbeRefMs float64 `json:"probe_ref_ms"`
}

func fingerprint() host {
	bi := obs.GetBuildInfo()
	return host{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), Commit: bi.Commit, Dirty: bi.Dirty, ProbeRefMs: probeRefMs,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close() //vc2m:closeflush read-only file; a close error cannot lose data
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
