package server

import (
	"vc2m/internal/model"
	"vc2m/internal/wirejson"
	"vc2m/internal/workload"
)

// A submission is decoded in one pass: UnmarshalJSON walks the body once
// with a wirejson.Scanner and descends into model's scanners for the
// system and the churn arrivals, so each byte of a WCET table is read
// exactly once. encoding/json on plain structs of the same shape is the
// specification, and FuzzSubmitRequestJSON holds the decoder to it; the
// decoder is stricter in four ways, all errors naming the member path or
// the offset: member names are exact (no case variants) and unknown ones
// are rejected, a member may appear only once, nothing may follow the
// document, and a VM, task or arrival may not be null.

var (
	submitKeys = []string{"kind", "title", "mode", "seed", "system", "generate",
		"gen_seed", "simulate_ms", "metrics", "sweep", "churn"}
	sweepKeys    = []string{"platform", "dist", "util_min", "util_max", "util_step", "tasksets_per_point", "parallel"}
	churnKeys    = []string{"base_run", "events"}
	eventKeys    = []string{"arrivals", "departures"}
	generateKeys = []string{"platform", "target_ref_util", "dist", "num_vms", "max_tasks",
		"benchmarks", "use_trace_profiles", "trace_ops"}
)

// UnmarshalJSON decodes a submission body in one pass (see above). It
// replaces *r only on success; null leaves it unchanged. Nothing decoded
// aliases data: strings are copies and slices are exactly sized.
func (r *SubmitRequest) UnmarshalJSON(data []byte) error {
	s := wirejson.NewScanner(data)
	var req SubmitRequest
	present, err := s.Object(submitKeys, func(key string) error {
		var err error
		switch key {
		case "kind":
			return s.String(&req.Kind)
		case "title":
			return s.String(&req.Title)
		case "mode":
			return s.String(&req.Mode)
		case "seed":
			return s.Int64(&req.Seed)
		case "system":
			req.System, err = model.ScanSystem(s)
		case "generate":
			req.Generate, err = scanGenerate(s)
		case "gen_seed":
			return s.Int64(&req.GenSeed)
		case "simulate_ms":
			return s.Float64(&req.SimulateMs)
		case "metrics":
			return s.Bool(&req.Metrics)
		case "sweep":
			req.Sweep, err = scanSweep(s)
		default: // "churn"
			req.Churn, err = scanChurn(s)
		}
		return err
	})
	if err == nil {
		err = s.End()
	}
	if err != nil || !present {
		return err
	}
	*r = req
	return nil
}

func scanGenerate(s *wirejson.Scanner) (*workload.Config, error) {
	var cfg workload.Config
	present, err := s.Object(generateKeys, func(key string) error {
		switch key {
		case "platform":
			return model.ScanPlatform(s, &cfg.Platform)
		case "target_ref_util":
			return s.Float64(&cfg.TargetRefUtil)
		case "dist":
			// Distribution's own decoder reads the token as written.
			tok, err := s.StringToken()
			if err != nil {
				return err
			}
			return cfg.Dist.UnmarshalJSON(tok)
		case "num_vms":
			return s.Int(&cfg.NumVMs)
		case "max_tasks":
			return s.Int(&cfg.MaxTasks)
		case "benchmarks":
			var err error
			cfg.Benchmarks, err = scanStrings(s)
			return err
		case "use_trace_profiles":
			return s.Bool(&cfg.UseTraceProfiles)
		default: // "trace_ops"
			return s.Int(&cfg.TraceOps)
		}
	})
	if err != nil || !present {
		return nil, err
	}
	return &cfg, nil
}

func scanSweep(s *wirejson.Scanner) (*SweepSpec, error) {
	var sw SweepSpec
	present, err := s.Object(sweepKeys, func(key string) error {
		switch key {
		case "platform":
			return s.String(&sw.Platform)
		case "dist":
			return s.String(&sw.Dist)
		case "util_min":
			return s.Float64(&sw.UtilMin)
		case "util_max":
			return s.Float64(&sw.UtilMax)
		case "util_step":
			return s.Float64(&sw.UtilStep)
		case "tasksets_per_point":
			return s.Int(&sw.TasksetsPerPoint)
		default: // "parallel"
			return s.Int(&sw.Parallel)
		}
	})
	if err != nil || !present {
		return nil, err
	}
	return &sw, nil
}

func scanChurn(s *wirejson.Scanner) (*ChurnSpec, error) {
	var ch ChurnSpec
	present, err := s.Object(churnKeys, func(key string) error {
		if key == "base_run" {
			return s.String(&ch.BaseRun)
		}
		var events []ChurnEvent
		present, err := s.Array(func(i int) error {
			events = append(events, ChurnEvent{})
			ev := &events[i]
			// A null event is an empty one, as in encoding/json.
			_, err := s.Object(eventKeys, func(key string) error {
				var err error
				if key == "arrivals" {
					ev.Arrivals, err = model.ScanVMs(s)
				} else {
					ev.Departures, err = scanStrings(s)
				}
				return err
			})
			return err
		})
		if present {
			ch.Events = append(make([]ChurnEvent, 0, len(events)), events...)
		}
		return err
	})
	if err != nil || !present {
		return nil, err
	}
	return &ch, nil
}

// scanStrings decodes an array of strings into an exactly sized slice; a
// null element is the empty string, as in encoding/json.
func scanStrings(s *wirejson.Scanner) ([]string, error) {
	var list []string
	present, err := s.Array(func(int) error {
		list = append(list, "")
		return s.String(&list[len(list)-1])
	})
	if err != nil || !present {
		return nil, err
	}
	return append(make([]string, 0, len(list)), list...), nil
}
