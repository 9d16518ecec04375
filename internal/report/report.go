// Package report joins vC2M's three observability streams — allocation
// decision provenance (package provenance), search-effort counters
// (package metrics) and simulation traces (package trace / hypersim) —
// into one schema-versioned document that can be saved as JSON, rendered
// as a self-contained HTML page, diffed between runs and queried with
// "explain" (why did task X land where it did / why was taskset Y
// rejected?).
//
// Determinism contract: a Document built from two identically-seeded runs
// is byte-identical after Save. To that end documents carry only
// deterministic data — metrics counters (wall time lives in the obs
// spans, outside the document), provenance decisions (which contain no
// timestamps), and simulation totals in simulated ticks. The golden tests assert this.
//
// The package deliberately does not import internal/alloc: callers
// translate an allocator's RejectionError into the plain Rejection
// section, which keeps report usable from any layer without a dependency
// on the heuristics it describes.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"vc2m/internal/hypersim"
	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/provenance"
	"vc2m/internal/trace"
	"vc2m/internal/wirejson"
)

// SchemaVersion identifies the document layout. Bump when a field changes
// meaning; Validate rejects documents from other versions.
const SchemaVersion = "vc2m.report/v1"

// Document kinds.
const (
	KindRun   = "run"   // one taskset: allocation (+ optional simulation)
	KindSweep = "sweep" // a schedulability sweep over many tasksets
)

// PlatformSummary mirrors model.Platform in the document.
type PlatformSummary struct {
	Name string `json:"name"`
	M    int    `json:"m"`
	C    int    `json:"c"`
	B    int    `json:"b"`
	Cmin int    `json:"cmin"`
	Bmin int    `json:"bmin"`
}

// VCPUSummary is one VCPU's placement in the allocation section.
type VCPUSummary struct {
	ID        string   `json:"id"`
	PeriodMs  float64  `json:"period_ms"`
	BudgetMs  float64  `json:"budget_ms"` // at the owning core's (c,b)
	Bandwidth float64  `json:"bandwidth"` // BudgetMs / PeriodMs
	Tasks     []string `json:"tasks,omitempty"`
}

// CoreSummary is one core's partition grant and load.
type CoreSummary struct {
	Core        int           `json:"core"`
	Cache       int           `json:"cache"`
	BW          int           `json:"bw"`
	Utilization float64       `json:"utilization"`
	VCPUs       []VCPUSummary `json:"vcpus,omitempty"`
}

// AllocSummary is the accepted-allocation section.
type AllocSummary struct {
	Solution    string        `json:"solution"`
	Schedulable bool          `json:"schedulable"`
	UsedCache   int           `json:"used_cache"`
	UsedBW      int           `json:"used_bw"`
	Cores       []CoreSummary `json:"cores"`
}

// Rejection is the rejected-allocation section. Callers build it from an
// alloc.RejectionError (Stage/Reason/Violated map one-to-one); Violated
// holds provenance resource names ("cpu", "cache", "bw").
type Rejection struct {
	Stage    string   `json:"stage,omitempty"`
	Reason   string   `json:"reason"`
	Violated []string `json:"violated"`
}

// MissSummary is one (task, cause) deadline-miss tally from the trace
// diagnoser.
type MissSummary struct {
	Task  string `json:"task"`
	Cause string `json:"cause"`
	Count int    `json:"count"`
}

// SimSummary holds the deterministic totals of a simulation run. All
// quantities are event counts or simulated time — never wall clock.
type SimSummary struct {
	HorizonTicks         int64     `json:"horizon_ticks"`
	Released             int       `json:"released"`
	Completed            int       `json:"completed"`
	Missed               int       `json:"missed"`
	ContextSwitches      uint64    `json:"context_switches"`
	SchedInvocations     uint64    `json:"sched_invocations"`
	BudgetReplenishments uint64    `json:"budget_replenishments"`
	ThrottleEvents       uint64    `json:"throttle_events"`
	BWReplenishments     uint64    `json:"bw_replenishments"`
	CoreBusy             []float64 `json:"core_busy,omitempty"`
}

// SweepPoint is one (utilization, schedulable-fraction) measurement.
type SweepPoint struct {
	Util     float64 `json:"util"`
	Fraction float64 `json:"fraction"`
}

// SweepSeries is one solution's schedulability curve.
type SweepSeries struct {
	Solution string       `json:"solution"`
	Points   []SweepPoint `json:"points"`
}

// SweepSummary is the sweep section: curves plus the taskset total.
type SweepSummary struct {
	Tasksets int           `json:"tasksets"`
	Series   []SweepSeries `json:"series"`
}

// Document is the unified run report.
type Document struct {
	Schema   string          `json:"schema"`
	Title    string          `json:"title"`
	Kind     string          `json:"kind"`
	Seed     int64           `json:"seed"`
	Mode     string          `json:"mode,omitempty"`
	Platform PlatformSummary `json:"platform"`

	Allocation *AllocSummary `json:"allocation,omitempty"`
	Rejection  *Rejection    `json:"rejection,omitempty"`
	Sim        *SimSummary   `json:"sim,omitempty"`
	Misses     []MissSummary `json:"misses,omitempty"`
	Sweep      *SweepSummary `json:"sweep,omitempty"`

	// Counters is the metrics snapshot: deterministic search-effort
	// counts, so identically-seeded runs produce byte-identical documents.
	Counters map[string]int64 `json:"counters,omitempty"`

	// Decisions is the full provenance stream, in Seq order. BuildRun and
	// BuildSweep share it with the recorder (provenance.Recorder.View)
	// instead of copying it: writing a built document's decisions writes
	// the recorder's stream.
	Decisions []provenance.Decision `json:"decisions,omitempty"`

	// repeats are the recorder's repeated ranges of Decisions
	// (provenance.Recorder.Repeats). They are not part of the document:
	// Marshal writes a repeated decision by copying its source's bytes,
	// once it has checked the two are equal but for Seq.
	repeats []provenance.Repeat
}

// RunInput collects the sources BuildRun joins. Every field except Title,
// Seed and Platform may be zero/nil; the corresponding section is omitted.
type RunInput struct {
	Title      string
	Seed       int64
	Mode       string
	Platform   model.Platform
	Allocation *model.Allocation // accepted allocation, nil when rejected
	Rejection  *Rejection        // rejection verdict, nil when accepted
	Sim        *hypersim.Result  // simulation totals, nil when not simulated
	Diagnosis  *trace.Report     // deadline-miss diagnoses, nil when none
	Metrics    *metrics.Recorder // search-effort counters (nil ok)
	Provenance *provenance.Recorder
}

// BuildRun assembles a KindRun document.
func BuildRun(in RunInput) *Document {
	doc := &Document{
		Schema:   SchemaVersion,
		Title:    in.Title,
		Kind:     KindRun,
		Seed:     in.Seed,
		Mode:     in.Mode,
		Platform: summarizePlatform(in.Platform),

		Allocation: summarizeAllocation(in.Allocation),
		Rejection:  in.Rejection,
		Sim:        summarizeSim(in.Sim),
		Misses:     summarizeMisses(in.Diagnosis),
		Counters:   counterSnapshot(in.Metrics),
		Decisions:  in.Provenance.View(),
		repeats:    in.Provenance.Repeats(),
	}
	return doc
}

// SweepInput collects the sources BuildSweep joins.
type SweepInput struct {
	Title      string
	Seed       int64
	Mode       string
	Platform   model.Platform
	Sweep      *SweepSummary // the caller-flattened sweep curves
	Metrics    *metrics.Recorder
	Provenance *provenance.Recorder
}

// BuildSweep assembles a KindSweep document.
func BuildSweep(in SweepInput) *Document {
	return &Document{
		Schema:   SchemaVersion,
		Title:    in.Title,
		Kind:     KindSweep,
		Seed:     in.Seed,
		Mode:     in.Mode,
		Platform: summarizePlatform(in.Platform),

		Sweep:     in.Sweep,
		Counters:  counterSnapshot(in.Metrics),
		Decisions: in.Provenance.View(),
		repeats:   in.Provenance.Repeats(),
	}
}

func summarizePlatform(p model.Platform) PlatformSummary {
	return PlatformSummary{Name: p.Name, M: p.M, C: p.C, B: p.B, Cmin: p.Cmin, Bmin: p.Bmin}
}

func summarizeAllocation(a *model.Allocation) *AllocSummary {
	if a == nil {
		return nil
	}
	s := &AllocSummary{
		Solution:    a.Solution,
		Schedulable: a.Schedulable,
		UsedCache:   a.UsedCache(),
		UsedBW:      a.UsedBW(),
		Cores:       make([]CoreSummary, 0, len(a.Cores)),
	}
	for _, core := range a.Cores {
		cs := CoreSummary{
			Core: core.Core, Cache: core.Cache, BW: core.BW,
			Utilization: core.Utilization(),
			VCPUs:       make([]VCPUSummary, 0, len(core.VCPUs)),
		}
		for _, v := range core.VCPUs {
			vs := VCPUSummary{
				ID:        v.ID,
				PeriodMs:  v.Period,
				BudgetMs:  v.Budget.At(core.Cache, core.BW),
				Bandwidth: v.Bandwidth(core.Cache, core.BW),
			}
			for _, t := range v.Tasks {
				vs.Tasks = append(vs.Tasks, t.ID)
			}
			cs.VCPUs = append(cs.VCPUs, vs)
		}
		s.Cores = append(s.Cores, cs)
	}
	return s
}

func summarizeSim(r *hypersim.Result) *SimSummary {
	if r == nil {
		return nil
	}
	return &SimSummary{
		HorizonTicks:         int64(r.Horizon),
		Released:             r.Released,
		Completed:            r.Completed,
		Missed:               r.Missed,
		ContextSwitches:      r.ContextSwitches,
		SchedInvocations:     r.SchedInvocations,
		BudgetReplenishments: r.BudgetReplenishments,
		ThrottleEvents:       r.ThrottleEvents,
		BWReplenishments:     r.BWReplenishments,
		CoreBusy:             r.CoreBusy,
	}
}

func summarizeMisses(rep *trace.Report) []MissSummary {
	if rep == nil || len(rep.ByTask) == 0 {
		return nil
	}
	tasks := make([]string, 0, len(rep.ByTask))
	for id := range rep.ByTask { //vc2m:ordered keys are sorted below
		tasks = append(tasks, id)
	}
	sort.Strings(tasks)
	var out []MissSummary
	for _, id := range tasks {
		counts := rep.ByTask[id]
		// Walk causes in declaration order; String falls back to
		// "cause(n)" past the last named one, which ends the walk.
		for c := trace.MissCause(0); !strings.HasPrefix(c.String(), "cause("); c++ {
			if n := counts[c]; n > 0 {
				out = append(out, MissSummary{Task: id, Cause: c.String(), Count: n})
			}
		}
	}
	return out
}

func counterSnapshot(rec *metrics.Recorder) map[string]int64 {
	if rec == nil {
		return nil
	}
	snap := rec.Snapshot()
	if len(snap.Counters) == 0 {
		return nil
	}
	return snap.Counters
}

// Save writes the document as indented JSON. The output is byte-stable
// for identical documents (encoding/json sorts map keys).
func Save(path string, doc *Document) error {
	data, err := Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Marshal renders the document to its canonical JSON bytes: exactly
// json.MarshalIndent(doc, "", "  ") plus a trailing newline. The decision
// stream is nearly all of a run report's bytes, so only the document head
// goes through json.MarshalIndent; the decisions are appended directly
// at their fixed indentation, into a buffer sized once. A decision the
// recorder repeated (provenance.Repeat) that still equals its source but
// for Seq is written by copying the bytes its source produced after
// "seq". TestMarshalMatchesEncodingJSON and FuzzReportMarshal hold the
// result to encoding/json.
func Marshal(doc *Document) ([]byte, error) {
	var decisions []provenance.Decision
	var repeats []provenance.Repeat
	if doc != nil {
		head := *doc
		decisions, head.Decisions = doc.Decisions, nil
		repeats = doc.repeats
		doc = &head
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("report: marshal: %w", err)
	}
	if len(decisions) == 0 {
		return append(data, '\n'), nil
	}
	// Decisions is the document's last member: its array replaces the
	// head's closing "\n}".
	data = data[:len(data)-len("\n}")]
	size := len(data) + len(decisionsOpen) + len(decisionsClose)
	for i := range decisions {
		size += decisionSize(&decisions[i])
	}
	out := append(make([]byte, 0, size), data...)
	out = append(out, decisionsOpen...)
	// bodies[2*i:2*i+2] is the byte range of decision i after its seq,
	// kept only when some decision repeats another.
	var bodies []int
	if len(repeats) > 0 {
		bodies = make([]int, 2*len(decisions))
	}
	r := 0 // the first repeat that does not end before decision i
	for i := range decisions {
		d := &decisions[i]
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, decisionOpen...)
		out = strconv.AppendInt(out, int64(d.Seq), 10)
		start := len(out)
		for r < len(repeats) && repeats[r].At+repeats[r].N <= i {
			r++
		}
		if j := repeatSource(repeats, r, i); j >= 0 && sameButSeq(d, &decisions[j]) {
			out = append(out, out[bodies[2*j]:bodies[2*j+1]]...)
		} else if out, err = appendDecisionBody(out, d); err != nil {
			return nil, fmt.Errorf("report: marshal: %w", err)
		}
		if bodies != nil {
			bodies[2*i], bodies[2*i+1] = start, len(out)
		}
	}
	return append(out, decisionsClose...), nil
}

// repeatSource returns the position of the decision that decision i
// repeats under repeats[r], or -1 when it repeats none before it.
func repeatSource(repeats []provenance.Repeat, r, i int) int {
	if r >= len(repeats) || repeats[r].At > i {
		return -1
	}
	if j := repeats[r].From + i - repeats[r].At; j >= 0 && j < i {
		return j
	}
	return -1
}

// sameButSeq reports whether a and b encode alike after "seq": equal in
// every field but Seq, Value compared by bits.
func sameButSeq(a, b *provenance.Decision) bool {
	return a.Stage == b.Stage && a.Kind == b.Kind && a.Subject == b.Subject &&
		a.Target == b.Target && a.Cache == b.Cache && a.BW == b.BW &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		a.Accepted == b.Accepted && a.Reason == b.Reason &&
		slices.Equal(a.Violated, b.Violated)
}

// The decisions array as json.MarshalIndent lays it out in a Document:
// the member at two spaces of indentation, each decision at four, its
// members at six and a violated list's elements at eight.
const (
	decisionsOpen  = ",\n  \"decisions\": ["
	decisionsClose = "\n  ]\n}\n"
	elementOpen    = "\n    {"
	decisionOpen   = elementOpen + "\n      \"seq\": "
	decisionClose  = "\n    }"
	memberOpen     = ",\n      \""
	memberColon    = "\": "
	violatedIndent = "\n        "
	violatedClose  = "\n      ]"
	// maxFloatLen is the longest number wirejson.AppendFloat writes, as in
	// -0.0000012345678901234567.
	maxFloatLen = 25
)

// appendDecisionBody appends what follows d's seq when json.MarshalIndent
// writes d inside Document.Decisions: Decision's field order and
// omitempty rules, violated as an indented array, and the closing brace.
func appendDecisionBody(b []byte, d *provenance.Decision) ([]byte, error) {
	b = wirejson.AppendString(appendKey(b, "stage"), d.Stage)
	b = wirejson.AppendString(appendKey(b, "kind"), d.Kind)
	if d.Subject != "" {
		b = wirejson.AppendString(appendKey(b, "subject"), d.Subject)
	}
	if d.Target != "" {
		b = wirejson.AppendString(appendKey(b, "target"), d.Target)
	}
	if d.Cache != 0 {
		b = strconv.AppendInt(appendKey(b, "cache"), int64(d.Cache), 10)
	}
	if d.BW != 0 {
		b = strconv.AppendInt(appendKey(b, "bw"), int64(d.BW), 10)
	}
	if d.Value != 0 { //vc2m:floateq omitempty drops exactly the values equal to zero, as encoding/json does
		var err error
		if b, err = wirejson.AppendFloat(appendKey(b, "value"), d.Value); err != nil {
			return nil, err
		}
	}
	b = strconv.AppendBool(appendKey(b, "accepted"), d.Accepted)
	if d.Reason != "" {
		b = wirejson.AppendString(appendKey(b, "reason"), d.Reason)
	}
	if len(d.Violated) > 0 {
		b = append(appendKey(b, "violated"), '[')
		for i, r := range d.Violated {
			if i > 0 {
				b = append(b, ',')
			}
			b = wirejson.AppendString(append(b, violatedIndent...), string(r))
		}
		b = append(b, violatedClose...)
	}
	return append(b, decisionClose...), nil
}

// appendKey appends a decision member's separator, indentation and key.
func appendKey(b []byte, key string) []byte {
	b = append(b, memberOpen...)
	b = append(b, key...)
	return append(b, memberColon...)
}

// decisionSize is the length of d's element in the decisions array, its
// separating comma included: its open, its seq and appendDecisionBody's
// output, with every number at its longest; exact unless a string needs
// escaping.
func decisionSize(d *provenance.Decision) int {
	key := func(k string) int { return len(memberOpen) + len(k) + len(memberColon) }
	str := func(k, s string) int { return key(k) + len(s) + len(`""`) }
	n := 1 + len(decisionOpen) + intLen(d.Seq) + str("stage", d.Stage) + str("kind", d.Kind) +
		key("accepted") + len("false") + len(decisionClose)
	if d.Subject != "" {
		n += str("subject", d.Subject)
	}
	if d.Target != "" {
		n += str("target", d.Target)
	}
	if d.Cache != 0 {
		n += key("cache") + intLen(d.Cache)
	}
	if d.BW != 0 {
		n += key("bw") + intLen(d.BW)
	}
	if d.Value != 0 { //vc2m:floateq mirrors appendDecisionBody's omitempty test
		n += key("value") + maxFloatLen
	}
	if d.Reason != "" {
		n += str("reason", d.Reason)
	}
	if len(d.Violated) > 0 {
		n += key("violated") + len("[") + len(violatedClose)
		for _, r := range d.Violated {
			n += len(",") + len(violatedIndent) + len(r) + len(`""`)
		}
	}
	return n
}

// EachDecisionLine calls fn with the decisions of data, a document as
// Marshal writes it, from the from-th on: each element of its decisions
// array compacted to one line and ended by a newline. That is byte for
// byte what json.Encoder.Encode writes for the decision, because
// json.MarshalIndent and the Encoder escape HTML and format floats alike.
// Nothing is decoded. The array is the document's last member, at the
// indentation the constants above fix, and a raw newline in the bytes only
// ever separates tokens, so each element runs from "\n    {" to the first
// "\n    }" after it. A document without decisions yields no line. line
// is reused once fn returns; an error from fn ends the walk and is
// returned.
func EachDecisionLine(data []byte, from int, fn func(line []byte) error) error {
	i := bytes.Index(data, []byte(decisionsOpen))
	if i < 0 {
		return nil
	}
	rest := data[i+len(decisionsOpen):]
	var line bytes.Buffer
	for n := 0; !bytes.HasPrefix(rest, []byte(decisionsClose)); n++ {
		if n > 0 {
			if len(rest) == 0 || rest[0] != ',' {
				return fmt.Errorf("report: decision %d: no separator", n)
			}
			rest = rest[1:]
		}
		end := bytes.Index(rest, []byte(decisionClose))
		if end < 0 || !bytes.HasPrefix(rest, []byte(elementOpen)) {
			return fmt.Errorf("report: decision %d: not in Marshal's layout", n)
		}
		elem := rest[:end+len(decisionClose)]
		rest = rest[len(elem):]
		if n < from {
			continue
		}
		line.Reset()
		if err := json.Compact(&line, elem); err != nil {
			return fmt.Errorf("report: decision %d: %w", n, err)
		}
		line.WriteByte('\n')
		if err := fn(line.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// intLen is the length of n in decimal.
func intLen(n int) int {
	var buf [20]byte
	return len(strconv.AppendInt(buf[:0], int64(n), 10))
}

// Load reads and validates a document.
func Load(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("report: parse %s: %w", path, err)
	}
	if err := Validate(&doc); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return &doc, nil
}

// Validate checks the document's structural invariants: the schema
// version, a known kind, monotonically increasing decision sequence
// numbers, and valid resource names in every Violated list.
func Validate(doc *Document) error {
	if doc.Schema != SchemaVersion {
		return fmt.Errorf("schema %q, want %q", doc.Schema, SchemaVersion)
	}
	if doc.Kind != KindRun && doc.Kind != KindSweep {
		return fmt.Errorf("unknown kind %q", doc.Kind)
	}
	prev := -1
	for i, d := range doc.Decisions {
		if d.Seq <= prev {
			return fmt.Errorf("decision %d: seq %d not increasing (prev %d)", i, d.Seq, prev)
		}
		prev = d.Seq
		for _, r := range d.Violated {
			if !provenance.ValidResource(r) {
				return fmt.Errorf("decision %d (seq %d): invalid resource %q", i, d.Seq, r)
			}
		}
	}
	if doc.Rejection != nil {
		if doc.Rejection.Reason == "" {
			return fmt.Errorf("rejection section without a reason")
		}
		if len(doc.Rejection.Violated) == 0 {
			return fmt.Errorf("rejection section without a binding resource")
		}
		for _, r := range doc.Rejection.Violated {
			if !provenance.ValidResource(provenance.Resource(r)) {
				return fmt.Errorf("rejection: invalid resource %q", r)
			}
		}
	}
	if doc.Allocation != nil && doc.Rejection != nil {
		return fmt.Errorf("document has both an allocation and a rejection")
	}
	return nil
}

// Diff compares two documents section by section and returns one line per
// difference (empty means identical). Two identically-seeded runs must
// diff clean — that is the reproducibility acceptance test.
func Diff(a, b *Document) []string {
	var out []string
	diffScalar := func(name string, av, bv any) {
		aj, _ := json.Marshal(av)
		bj, _ := json.Marshal(bv)
		if string(aj) != string(bj) {
			out = append(out, fmt.Sprintf("%s: %s != %s", name, aj, bj))
		}
	}
	diffScalar("schema", a.Schema, b.Schema)
	diffScalar("title", a.Title, b.Title)
	diffScalar("kind", a.Kind, b.Kind)
	diffScalar("seed", a.Seed, b.Seed)
	diffScalar("mode", a.Mode, b.Mode)
	diffScalar("platform", a.Platform, b.Platform)
	diffScalar("allocation", a.Allocation, b.Allocation)
	diffScalar("rejection", a.Rejection, b.Rejection)
	diffScalar("sim", a.Sim, b.Sim)
	diffScalar("misses", a.Misses, b.Misses)
	diffScalar("sweep", a.Sweep, b.Sweep)
	diffScalar("counters", a.Counters, b.Counters)

	n := len(a.Decisions)
	if len(b.Decisions) != n {
		out = append(out, fmt.Sprintf("decisions: %d != %d entries", len(a.Decisions), len(b.Decisions)))
		if len(b.Decisions) < n {
			n = len(b.Decisions)
		}
	}
	const maxDecisionDiffs = 10
	shown := 0
	for i := 0; i < n && shown < maxDecisionDiffs; i++ {
		aj, _ := json.Marshal(a.Decisions[i])
		bj, _ := json.Marshal(b.Decisions[i])
		if string(aj) != string(bj) {
			out = append(out, fmt.Sprintf("decision %d: %s != %s", i, aj, bj))
			shown++
		}
	}
	return out
}

// Explain reconstructs the decision trail for a subject — a task ID, a
// VCPU ID, a core ("core 2"), or a sweep case ("u=1.00/ts=3"). Matching is
// case-sensitive substring over each decision's Subject and Target. For a
// rejected document (or matching reject decisions) the verdict names the
// binding resource(s).
func Explain(doc *Document, subject string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "explain %q in %s report %q (seed %d)\n", subject, doc.Kind, doc.Title, doc.Seed)
	matched := 0
	var binding []string
	seen := map[string]bool{}
	addBinding := func(rs []string) {
		for _, r := range rs {
			if !seen[r] {
				seen[r] = true
				binding = append(binding, r)
			}
		}
	}
	for _, d := range doc.Decisions {
		if !strings.Contains(d.Subject, subject) && !strings.Contains(d.Target, subject) {
			continue
		}
		matched++
		b.WriteString("  " + FormatDecision(d) + "\n")
		if !d.Accepted && len(d.Violated) > 0 {
			rs := make([]string, len(d.Violated))
			for i, r := range d.Violated {
				rs[i] = string(r)
			}
			addBinding(rs)
		}
	}
	if matched == 0 {
		fmt.Fprintf(&b, "  no decisions mention %q (the run may have been recorded without -provenance)\n", subject)
	}
	if doc.Rejection != nil {
		fmt.Fprintf(&b, "verdict: REJECTED at %s — %s\n", orUnknown(doc.Rejection.Stage), doc.Rejection.Reason)
		addBinding(doc.Rejection.Violated)
	}
	if len(binding) > 0 {
		fmt.Fprintf(&b, "binding resource(s): %s\n", strings.Join(binding, ", "))
	} else if matched > 0 {
		b.WriteString("verdict: no rejection recorded for this subject\n")
	}
	return b.String()
}

// FormatDecision renders one decision as a single stable line.
func FormatDecision(d provenance.Decision) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%04d [%s/%s]", d.Seq, d.Stage, d.Kind)
	if d.Subject != "" {
		fmt.Fprintf(&b, " %s", d.Subject)
	}
	if d.Target != "" {
		fmt.Fprintf(&b, " -> %s", d.Target)
	}
	if d.Cache != 0 || d.BW != 0 {
		fmt.Fprintf(&b, " (cache %d, bw %d)", d.Cache, d.BW)
	}
	if d.Value != 0 { //vc2m:floateq unset-field sentinel
		fmt.Fprintf(&b, " value %.4g", d.Value)
	}
	if d.Accepted {
		b.WriteString(" OK")
	} else {
		b.WriteString(" REJECTED")
	}
	if len(d.Violated) > 0 {
		rs := make([]string, len(d.Violated))
		for i, r := range d.Violated {
			rs[i] = string(r)
		}
		fmt.Fprintf(&b, " binding=%s", strings.Join(rs, ","))
	}
	if d.Reason != "" {
		fmt.Fprintf(&b, ": %s", d.Reason)
	}
	return b.String()
}

// RejectionPareto tallies the document's reject decisions by violated
// resource, most frequent first — "what binds most often?".
func RejectionPareto(doc *Document) []struct {
	Resource string
	Count    int
} {
	counts := map[string]int{}
	for _, d := range doc.Decisions {
		if d.Accepted {
			continue
		}
		for _, r := range d.Violated {
			counts[string(r)]++
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts { //vc2m:ordered keys are sorted below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	out := make([]struct {
		Resource string
		Count    int
	}, 0, len(keys))
	for _, k := range keys {
		out = append(out, struct {
			Resource string
			Count    int
		}{k, counts[k]})
	}
	return out
}

func orUnknown(s string) string {
	if s == "" {
		return "(unknown stage)"
	}
	return s
}
