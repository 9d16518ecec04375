package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"

	"vc2m"
	"vc2m/internal/alloc"
	"vc2m/internal/model"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/rngutil"
	"vc2m/internal/server"
	"vc2m/internal/workload"
)

// benchWire measures the served path's two wire layers on cold-existing
// shaped traffic: platform-A systems at reference utilization 1.2,
// submitted for the existing CSA.
//
//   - wire/submit-decode: the server's request decoding (the one-pass
//     SubmitRequest.UnmarshalJSON the handlers call, then Validate) against
//     the same body decoded by encoding/json alone (DecodeSubmitReference);
//     the decoded submissions must be deep-equal.
//   - wire/report-marshal: report.Marshal of each run's report against
//     json.MarshalIndent plus a newline; the bytes must be equal.
func benchWire(opts Options) ([]Result, error) {
	systems, repeats := 8, 25
	if opts.Quick {
		systems, repeats = 2, 1
	}
	gen := rngutil.New(16411)
	bodies := make([][]byte, systems)
	docs := make([]*report.Document, systems)
	var bodyBytes, reportBytes int
	for i := range bodies {
		sys, err := workload.Generate(workload.Config{
			Platform:      model.PlatformA,
			TargetRefUtil: 1.2,
			Dist:          workload.Uniform,
		}, gen.Split())
		if err != nil {
			return nil, err
		}
		req := server.SubmitRequest{Kind: server.KindRun, Mode: "existing", Seed: int64(i), System: sys}
		if bodies[i], err = json.Marshal(req); err != nil {
			return nil, err
		}
		prov := provenance.New()
		in := report.RunInput{Title: "wire", Seed: int64(i), Mode: "existing", Platform: sys.Platform, Provenance: prov}
		a, err := vc2m.Allocate(sys, vc2m.Options{Mode: vc2m.ExistingCSA, Seed: int64(i), Provenance: prov})
		if err != nil {
			in.Rejection = rejectionOf(err)
		} else {
			in.Allocation = a
		}
		docs[i] = report.BuildRun(in)
		bodyBytes += len(bodies[i])
	}

	decoded := make([]*server.SubmitRequest, systems)
	refDecoded := make([]*server.SubmitRequest, systems)
	decodeOpt := func(body []byte) (*server.SubmitRequest, error) {
		var req server.SubmitRequest
		if err := req.UnmarshalJSON(body); err != nil {
			return nil, err
		}
		return &req, req.Validate()
	}
	decodeRef := func(body []byte) (*server.SubmitRequest, error) {
		req, err := DecodeSubmitReference(body)
		if err != nil {
			return nil, err
		}
		return &req, req.Validate()
	}
	var runErr error
	timeDecode := func(decode func([]byte) (*server.SubmitRequest, error), out []*server.SubmitRequest) float64 {
		return medianSeconds(opts.Runs, func() {
			for r := 0; r < repeats; r++ {
				for i, body := range bodies {
					req, err := decode(body)
					if err != nil {
						runErr = err
					}
					out[i] = req
				}
			}
		})
	}
	decSecs := timeDecode(decodeOpt, decoded)
	decRefSecs := timeDecode(decodeRef, refDecoded)
	if runErr != nil {
		return nil, runErr
	}
	for i := range decoded {
		if !reflect.DeepEqual(decoded[i], refDecoded[i]) {
			return nil, fmt.Errorf("bench wire/submit-decode: submission %d decodes differently by reflection", i)
		}
	}

	marshaled := make([][]byte, systems)
	refMarshaled := make([][]byte, systems)
	timeMarshal := func(marshal func(*report.Document) ([]byte, error), out [][]byte) float64 {
		return medianSeconds(opts.Runs, func() {
			for r := 0; r < repeats; r++ {
				for i, doc := range docs {
					data, err := marshal(doc)
					if err != nil {
						runErr = err
					}
					out[i] = data
				}
			}
		})
	}
	marSecs := timeMarshal(report.Marshal, marshaled)
	marRefSecs := timeMarshal(func(doc *report.Document) ([]byte, error) {
		data, err := json.MarshalIndent(doc, "", "  ")
		return append(data, '\n'), err
	}, refMarshaled)
	if runErr != nil {
		return nil, runErr
	}
	for i := range marshaled {
		if !bytes.Equal(marshaled[i], refMarshaled[i]) {
			return nil, fmt.Errorf("bench wire/report-marshal: report %d differs from json.MarshalIndent", i)
		}
		reportBytes += len(marshaled[i])
	}

	ops := float64(systems * repeats)
	result := func(name, metric string, secs, refSecs float64, notes string) Result {
		res := Result{
			Name: name, Metric: metric, Value: throughput(ops, secs), Runs: opts.Runs,
			Baseline: &Baseline{Name: "encoding/json", Value: throughput(ops, refSecs)},
			Notes:    notes,
		}
		if res.Baseline.Value > 0 {
			res.Speedup = res.Value / res.Baseline.Value
		}
		return res
	}
	return []Result{
		result("wire/submit-decode", "requests_per_sec", decSecs, decRefSecs,
			fmt.Sprintf("%d platform-A util-1.2 existing-mode submissions (%d kB each) x%d, decode + Validate",
				systems, bodyBytes/systems/1000, repeats)),
		result("wire/report-marshal", "reports_per_sec", marSecs, marRefSecs,
			fmt.Sprintf("the %d submissions' existing-CSA run reports (%d kB each) x%d",
				systems, reportBytes/systems/1000, repeats)),
	}, nil
}

// rejectionOf is the server's translation of an allocation error into a
// report's rejection section.
func rejectionOf(err error) *report.Rejection {
	rej := &report.Rejection{Reason: err.Error(), Violated: []string{"cpu"}}
	if re, ok := alloc.AsRejection(err); ok {
		rej.Stage = re.Stage
		rej.Violated = rej.Violated[:0]
		for _, r := range re.Violated {
			rej.Violated = append(rej.Violated, string(r))
		}
	}
	return rej
}

// DecodeSubmitReference decodes a submission body by encoding/json alone:
// into refSubmit, a mirror of SubmitRequest's wire shape built from types
// with no decoding methods of their own (so neither
// SubmitRequest.UnmarshalJSON nor ResourceTable.UnmarshalJSON runs), with
// unknown members and trailing data rejected. It then assembles the
// SubmitRequest with the checks the one-pass decoder adds to encoding/json:
// WCET tables need valid bounds and exactly their count of values, and a
// VM, task or arrival may not be null. Only Distribution keeps its own
// UnmarshalJSON, which the one-pass decoder reuses as its specification.
//
// It is the baseline of wire/submit-decode and the oracle of the server's
// FuzzSubmitRequestJSON.
func DecodeSubmitReference(data []byte) (server.SubmitRequest, error) {
	var ref refSubmit
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ref); err != nil {
		return server.SubmitRequest{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return server.SubmitRequest{}, fmt.Errorf("bench: trailing data after the submission")
	}
	return ref.request()
}

type refSubmit struct {
	Kind       string            `json:"kind"`
	Title      string            `json:"title"`
	Mode       string            `json:"mode"`
	Seed       int64             `json:"seed"`
	System     *refSystem        `json:"system"`
	Generate   *workload.Config  `json:"generate"`
	GenSeed    int64             `json:"gen_seed"`
	SimulateMs float64           `json:"simulate_ms"`
	Metrics    bool              `json:"metrics"`
	Sweep      *server.SweepSpec `json:"sweep"`
	Churn      *refChurn         `json:"churn"`
}

type refSystem struct {
	Platform model.Platform `json:"platform"`
	VMs      []*refVM       `json:"vms"`
}

type refVM struct {
	ID       string     `json:"id"`
	Tasks    []*refTask `json:"tasks"`
	MaxVCPUs int        `json:"max_vcpus"`
}

type refTask struct {
	ID        string    `json:"id"`
	VM        string    `json:"vm"`
	Period    float64   `json:"period_ms"`
	WCET      *refTable `json:"wcet_ms"`
	Benchmark string    `json:"benchmark"`
}

// refTable is a ResourceTable's wire form as a plain struct.
type refTable struct {
	CMin   int       `json:"cmin"`
	CMax   int       `json:"cmax"`
	BMin   int       `json:"bmin"`
	BMax   int       `json:"bmax"`
	Values []float64 `json:"values"`
}

type refChurn struct {
	BaseRun string     `json:"base_run"`
	Events  []refEvent `json:"events"`
}

type refEvent struct {
	Arrivals   []*refVM `json:"arrivals"`
	Departures []string `json:"departures"`
}

// request assembles the SubmitRequest the body describes.
func (r *refSubmit) request() (server.SubmitRequest, error) {
	req := server.SubmitRequest{
		Kind: r.Kind, Title: r.Title, Mode: r.Mode, Seed: r.Seed,
		Generate: r.Generate, GenSeed: r.GenSeed, SimulateMs: r.SimulateMs,
		Metrics: r.Metrics, Sweep: r.Sweep,
	}
	var err error
	if r.System != nil {
		req.System = &model.System{Platform: r.System.Platform}
		if req.System.VMs, err = refVMs(r.System.VMs); err != nil {
			return req, err
		}
	}
	if r.Churn != nil {
		req.Churn = &server.ChurnSpec{BaseRun: r.Churn.BaseRun}
		if r.Churn.Events != nil {
			req.Churn.Events = make([]server.ChurnEvent, len(r.Churn.Events))
		}
		for i, ev := range r.Churn.Events {
			req.Churn.Events[i].Departures = ev.Departures
			if req.Churn.Events[i].Arrivals, err = refVMs(ev.Arrivals); err != nil {
				return req, err
			}
		}
	}
	return req, nil
}

func refVMs(in []*refVM) ([]*model.VM, error) {
	if in == nil {
		return nil, nil
	}
	out := make([]*model.VM, len(in))
	for i, rv := range in {
		if rv == nil {
			return nil, fmt.Errorf("bench: VM %d is null", i)
		}
		vm := &model.VM{ID: rv.ID, MaxVCPUs: rv.MaxVCPUs}
		if rv.Tasks != nil {
			vm.Tasks = make([]*model.Task, len(rv.Tasks))
		}
		for j, rt := range rv.Tasks {
			if rt == nil {
				return nil, fmt.Errorf("bench: VM %q: task %d is null", rv.ID, j)
			}
			task := &model.Task{ID: rt.ID, VM: rt.VM, Period: rt.Period, Benchmark: rt.Benchmark}
			if w := rt.WCET; w != nil {
				nc, nb := w.CMax-w.CMin+1, w.BMax-w.BMin+1
				if w.CMax < w.CMin || w.BMax < w.BMin || w.CMin < 0 || w.BMin < 0 ||
					nc <= 0 || nb <= 0 || nc > math.MaxInt/nb || len(w.Values) != nc*nb {
					return nil, fmt.Errorf("bench: task %q: invalid WCET table", rt.ID)
				}
				task.WCET = model.NewResourceTable(w.CMin, w.CMax, w.BMin, w.BMax)
				task.WCET.Fill(func(c, b int) float64 { return w.Values[(c-w.CMin)*nb+b-w.BMin] })
			}
			vm.Tasks[j] = task
		}
		out[i] = vm
	}
	return out, nil
}
