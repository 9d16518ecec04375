package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"vc2m/internal/trace"
)

// WriteChrome exports the ended spans as a Chrome trace-event JSON
// document (open in ui.perfetto.dev or chrome://tracing), in the same
// envelope and record layout as the flight recorder's exporter
// (trace.ChromeWriter). Each root span becomes its own thread track, with
// descendants nested on the same track as complete ("X") duration events —
// Perfetto renders the hierarchy from the overlapping durations.
// Timestamps are microseconds relative to the trace's earliest span start.
// A nil trace writes a valid empty document.
func (t *Trace) WriteChrome(w io.Writer) error {
	spans := t.Snapshot() // nil-safe: a nil trace snapshots to nothing
	doc := trace.NewChromeDoc(w)

	// Track assignment: walk each span up to its root; one tid per root.
	byID := make(map[int]SpanRecord, len(spans))
	var origin time.Time
	for i, s := range spans {
		byID[s.ID] = s
		if i == 0 || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	rootOf := func(s SpanRecord) int {
		for s.Parent >= 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break // parent never ended; treat the orphan as a root
			}
			s = p
		}
		return s.ID
	}

	if tc := t.TraceContext(); tc.Valid() && len(spans) > 0 {
		// The trace's W3C identity rides as process metadata, so an
		// exported span file names the distributed trace it belongs to —
		// grep the file for the trace ID a /metrics exemplar pointed at.
		doc.Event(trace.ChromeEvent{
			Name: "process_name", Phase: "M",
			Args: map[string]any{"trace_id": tc.TraceID},
		})
	}
	tids := map[int]int{} // root span ID -> tid
	for _, s := range spans {
		root := rootOf(s)
		tid, ok := tids[root]
		if !ok {
			tid = len(tids) + 1
			tids[root] = tid
			doc.Event(trace.ChromeEvent{
				Name: "thread_name", Phase: "M", TID: tid,
				Args: map[string]any{"name": byID[root].Name},
			})
		}
		dur := s.Duration.Microseconds()
		if dur <= 0 {
			dur = 1 // the format treats dur<=0 as malformed
		}
		var args map[string]any
		if len(s.Attrs) > 0 {
			args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				args[a.Key] = a.Value
			}
		}
		doc.Event(trace.ChromeEvent{
			Name: s.Name, Cat: "span", Phase: "X",
			TS:  s.Start.Sub(origin).Microseconds(),
			Dur: dur, TID: tid, Args: args,
		})
	}
	return doc.Close()
}

// ReadChromeStages decodes a span document written by WriteChrome and
// returns the sorted set of span stage names it contains — the obs-smoke
// golden check reads exported files back through this.
func ReadChromeStages(r io.Reader) ([]string, error) {
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("obs: decoding span document: %w", err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			seen[ev.Name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen { //vc2m:ordered keys are sorted below
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
