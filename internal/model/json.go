package model

import (
	"encoding/json"
	"fmt"
	"strconv"

	"vc2m/internal/wirejson"
)

// The wire form of a ResourceTable is one JSON object with exactly five
// members, in any order: the index bounds cmin, cmax, bmin, bmax and the
// row-major values. Tables are nearly all of a system's bytes (a Platform
// A task carries 19×20 values), so both directions are written by hand;
// encoding/json on a struct of those five fields remains the specification,
// and FuzzResourceTableJSON holds the codec to it.

// MarshalJSON encodes the table as bounds plus row-major values, in the
// bytes json.Marshal writes for the five-member struct.
func (t *ResourceTable) MarshalJSON() ([]byte, error) {
	// A computed float64 takes up to ~18 bytes in its shortest form.
	b := make([]byte, 0, 64+len(t.vals)*18)
	b = strconv.AppendInt(append(b, `{"cmin":`...), int64(t.cmin), 10)
	b = strconv.AppendInt(append(b, `,"cmax":`...), int64(t.cmin+t.nc-1), 10)
	b = strconv.AppendInt(append(b, `,"bmin":`...), int64(t.bmin), 10)
	b = strconv.AppendInt(append(b, `,"bmax":`...), int64(t.bmin+t.nb-1), 10)
	b, err := wirejson.AppendFloats(append(b, `,"values":`...), t.vals)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// UnmarshalJSON decodes the wire form in one pass over data. It accepts
// what json.Unmarshal into the five-member struct accepts — members in any
// order, the last of a repeated member winning, null leaving a bound or an
// element as it was — with two differences: a member other than the
// exact five wire keys is an error (json.Unmarshal would ignore it, or match
// a case variant), and so is a range whose size overflows int. Values are
// bit-identical to what strconv.ParseFloat, and so encoding/json, makes
// of them; an out-of-range number is an error. The retained
// values slice has exactly the table's length and capacity.
func (t *ResourceTable) UnmarshalJSON(data []byte) error {
	s := wirejson.NewScanner(data)
	tab, err := scanTable(s, true)
	if err == nil && tab == nil {
		err = s.Errorf("a table must be a JSON object")
	}
	if err == nil {
		err = s.End()
	}
	if err != nil {
		return fmt.Errorf("model: ResourceTable: %w", err)
	}
	*t = *tab
	return nil
}

var tableKeys = []string{"cmin", "cmax", "bmin", "bmax", "values"}

// scanTable decodes a table's wire form; null is a nil table. repeatOK
// selects encoding/json's rule for a repeated member (the last wins)
// instead of the served request's (an error).
func scanTable(s *wirejson.Scanner, repeatOK bool) (*ResourceTable, error) {
	var cmin, cmax, bmin, bmax int
	var vals []float64
	member := func(key string) error {
		switch key {
		case "cmin":
			return s.Int(&cmin)
		case "cmax":
			return s.Int(&cmax)
		case "bmin":
			return s.Int(&bmin)
		case "bmax":
			return s.Int(&bmax)
		default: // "values"
			var err error
			vals, _, err = s.Float64s(vals, valuesHint(cmin, cmax, bmin, bmax, s.Remaining()))
			return err
		}
	}
	var present bool
	var err error
	if repeatOK {
		present, err = s.ObjectRepeat(tableKeys, member)
	} else {
		present, err = s.Object(tableKeys, member)
	}
	if err != nil || !present {
		return nil, err
	}
	nc, nb := cmax-cmin+1, bmax-bmin+1
	if cmax < cmin || bmax < bmin || cmin < 0 || bmin < 0 || nc <= 0 || nb <= 0 {
		return nil, s.Errorf("invalid ResourceTable bounds c[%d,%d] b[%d,%d]",
			cmin, cmax, bmin, bmax)
	}
	if len(vals)%nb != 0 || len(vals)/nb != nc {
		return nil, s.Errorf("ResourceTable has %d values, bounds need %d×%d",
			len(vals), nc, nb)
	}
	if cap(vals) != len(vals) {
		vals = append(make([]float64, 0, len(vals)), vals...)
	}
	return &ResourceTable{cmin: cmin, bmin: bmin, nc: nc, nb: nb, vals: vals}, nil
}

// valuesHint is the capacity to give a fresh values array: the size the
// bounds read so far call for, clamped to the most numbers n bytes can
// hold, so hostile bounds cannot force a large allocation. Zero when the
// bounds are not (yet) a valid range.
func valuesHint(cmin, cmax, bmin, bmax, n int) int {
	nc, nb := cmax-cmin+1, bmax-bmin+1
	if cmin < 0 || bmin < 0 || nc <= 0 || nb <= 0 {
		return 0
	}
	if limit := n/2 + 1; nc > limit || nb > limit || nc*nb > limit {
		return limit
	}
	return nc * nb
}

// The served request's decoders. They read a system in the same single
// pass as the rest of the request (package server), with the request's
// strict rules: member names are exactly the wire keys, each at most once,
// and a null VM or task is an error. Otherwise they decode what
// json.Unmarshal decodes: null leaves a scalar or a platform unchanged and
// makes a pointer or a slice nil, and [] is an empty slice. Slices have
// exact capacity, and strings are copies, so nothing they return aliases
// the request body. DecodeSystem and json.Unmarshal keep encoding/json's
// rules.

var (
	platformKeys = []string{"name", "m", "c", "b", "cmin", "bmin"}
	systemKeys   = []string{"platform", "vms"}
	vmKeys       = []string{"id", "tasks", "max_vcpus"}
	taskKeys     = []string{"id", "vm", "period_ms", "wcet_ms", "benchmark"}
)

// ScanPlatform decodes a platform object into *p; null leaves *p unchanged.
func ScanPlatform(s *wirejson.Scanner, p *Platform) error {
	_, err := s.Object(platformKeys, func(key string) error {
		switch key {
		case "name":
			return s.String(&p.Name)
		case "m":
			return s.Int(&p.M)
		case "c":
			return s.Int(&p.C)
		case "b":
			return s.Int(&p.B)
		case "cmin":
			return s.Int(&p.Cmin)
		default: // "bmin"
			return s.Int(&p.Bmin)
		}
	})
	return err
}

// ScanSystem decodes a system object; null is a nil system.
func ScanSystem(s *wirejson.Scanner) (*System, error) {
	var sys System
	present, err := s.Object(systemKeys, func(key string) error {
		if key == "platform" {
			return ScanPlatform(s, &sys.Platform)
		}
		var err error
		sys.VMs, err = ScanVMs(s)
		return err
	})
	if err != nil || !present {
		return nil, err
	}
	return &sys, nil
}

// ScanVMs decodes an array of VM objects, such as a system's vms or a
// churn event's arrivals.
func ScanVMs(s *wirejson.Scanner) ([]*VM, error) {
	return scanList(s, "VM", scanVM)
}

func scanVM(s *wirejson.Scanner) (*VM, error) {
	var vm VM
	present, err := s.Object(vmKeys, func(key string) error {
		switch key {
		case "id":
			return s.String(&vm.ID)
		case "tasks":
			var err error
			vm.Tasks, err = scanList(s, "task", scanTask)
			return err
		default: // "max_vcpus"
			return s.Int(&vm.MaxVCPUs)
		}
	})
	if err != nil || !present {
		return nil, err
	}
	return &vm, nil
}

func scanTask(s *wirejson.Scanner) (*Task, error) {
	var t Task
	present, err := s.Object(taskKeys, func(key string) error {
		switch key {
		case "id":
			return s.String(&t.ID)
		case "vm":
			return s.String(&t.VM)
		case "period_ms":
			return s.Float64(&t.Period)
		case "wcet_ms":
			var err error
			t.WCET, err = scanTable(s, false)
			return err
		default: // "benchmark"
			return s.String(&t.Benchmark)
		}
	})
	if err != nil || !present {
		return nil, err
	}
	return &t, nil
}

// scanList decodes an array of objects that must not be null, what naming
// an element in the error for one that is. The slice has exact capacity.
func scanList[T any](s *wirejson.Scanner, what string, scan func(*wirejson.Scanner) (*T, error)) ([]*T, error) {
	var stack [16]*T
	list := stack[:0]
	present, err := s.Array(func(int) error {
		v, err := scan(s)
		if err == nil && v == nil {
			err = s.Errorf("null %s", what)
		}
		list = append(list, v)
		return err
	})
	if err != nil || !present {
		return nil, err
	}
	return append(make([]*T, 0, len(list)), list...), nil
}

// EncodeSystem serializes a system to indented JSON.
func EncodeSystem(sys *System) ([]byte, error) {
	return json.MarshalIndent(sys, "", "  ")
}

// DecodeSystem parses a system from JSON and validates it.
func DecodeSystem(data []byte) (*System, error) {
	var sys System
	if err := json.Unmarshal(data, &sys); err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return &sys, nil
}

// EncodeAllocation serializes an allocation to indented JSON. Tasks inside
// VCPUs are embedded by value, so the encoding is self-contained (at the
// cost of duplicating task definitions that appear in the source system).
func EncodeAllocation(a *Allocation) ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// DecodeAllocation parses an allocation from JSON and checks its
// structural invariants.
func DecodeAllocation(data []byte) (*Allocation, error) {
	var a Allocation
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	if err := a.ValidateStructure(nil); err != nil {
		return nil, err
	}
	return &a, nil
}
