package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
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
//   - wire/submit-decode: the server's request decoding (json.Decoder with
//     DisallowUnknownFields, WCET tables through ResourceTable's direct
//     scan, then Validate) against the same body decoded by reflection
//     alone (refSubmit); the decoded systems must be deep-equal.
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

	decoded := make([]*model.System, systems)
	refDecoded := make([]*model.System, systems)
	decodeOpt := func(body []byte) (*model.System, error) {
		var req server.SubmitRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, err
		}
		return req.System, req.Validate()
	}
	decodeRef := func(body []byte) (*model.System, error) {
		var ref refSubmit
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ref); err != nil {
			return nil, err
		}
		req, err := ref.request()
		if err != nil {
			return nil, err
		}
		return req.System, req.Validate()
	}
	var runErr error
	timeDecode := func(decode func([]byte) (*model.System, error), out []*model.System) float64 {
		return medianSeconds(opts.Runs, func() {
			for r := 0; r < repeats; r++ {
				for i, body := range bodies {
					sys, err := decode(body)
					if err != nil {
						runErr = err
					}
					out[i] = sys
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
			return nil, fmt.Errorf("bench wire/submit-decode: system %d decodes differently by reflection", i)
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

// refSubmit decodes a SubmitRequest body by reflection alone: its system
// member shadows the embedded request's, and each task's wcet_ms member
// the embedded task's, so the WCET tables decode into refTable structs
// instead of through ResourceTable.UnmarshalJSON.
type refSubmit struct {
	server.SubmitRequest
	System *struct {
		Platform model.Platform `json:"platform"`
		VMs      []*struct {
			model.VM
			Tasks []*struct {
				model.Task
				WCET refTable `json:"wcet_ms"`
			} `json:"tasks"`
		} `json:"vms"`
	} `json:"system,omitempty"`
}

// refTable is a ResourceTable's wire form as a plain struct.
type refTable struct {
	CMin   int       `json:"cmin"`
	CMax   int       `json:"cmax"`
	BMin   int       `json:"bmin"`
	BMax   int       `json:"bmax"`
	Values []float64 `json:"values"`
}

// request assembles the SubmitRequest the body describes.
func (r *refSubmit) request() (server.SubmitRequest, error) {
	req := r.SubmitRequest
	if r.System == nil {
		return req, nil
	}
	req.System = &model.System{Platform: r.System.Platform}
	for _, rv := range r.System.VMs {
		vm := rv.VM
		vm.Tasks = make([]*model.Task, 0, len(rv.Tasks))
		for _, rt := range rv.Tasks {
			task := rt.Task
			w := rt.WCET
			if w.CMax < w.CMin || w.BMax < w.BMin || w.CMin < 0 || w.BMin < 0 ||
				len(w.Values) != (w.CMax-w.CMin+1)*(w.BMax-w.BMin+1) {
				return req, fmt.Errorf("bench: task %s: invalid WCET table", task.ID)
			}
			nb := w.BMax - w.BMin + 1
			task.WCET = model.NewResourceTable(w.CMin, w.CMax, w.BMin, w.BMax)
			task.WCET.Fill(func(c, b int) float64 { return w.Values[(c-w.CMin)*nb+b-w.BMin] })
			vm.Tasks = append(vm.Tasks, &task)
		}
		req.System.VMs = append(req.System.VMs, &vm)
	}
	return req, nil
}
