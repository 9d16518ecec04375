package metrics

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Snapshot is an immutable view of a Recorder's contents, the unit of
// rendering and serialization. Empty maps are nil so that a round trip
// through JSON compares equal.
type Snapshot struct {
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Empty reports whether nothing was recorded.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0
}

// JSON renders the snapshot as indented JSON with deterministic key order
// (encoding/json sorts map keys).
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ParseSnapshot is the inverse of JSON.
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("metrics: parse snapshot: %w", err)
	}
	return s, nil
}

// Table renders the snapshot as an aligned text table, rows sorted by
// name. An empty snapshot renders as a single informative line.
func (s Snapshot) Table() string {
	if s.Empty() {
		return "(no metrics recorded)\n"
	}
	keys := sortedKeys(s.Counters)
	width := 0
	for _, k := range keys {
		if len(k) > width {
			width = len(k)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s %14s\n", width, "counter", "value")
	for _, k := range keys {
		fmt.Fprintf(&b, "%-*s %14d\n", width, k, s.Counters[k])
	}
	return b.String()
}

// CSVHeader returns the column names matching CSVRows. Every row is a
// counter, so the n and min/mean/max columns are always empty; they stay
// so that the column layout matches existing metrics CSV files.
func CSVHeader() []string {
	return []string{"scope", "kind", "name", "value", "n", "min_sec", "mean_sec", "max_sec"}
}

// CSVRows flattens the snapshot into CSV records (without header), one
// counter per row sorted by name. The scope column lets rows from several
// snapshots (e.g. one per solution) share one file.
func (s Snapshot) CSVRows(scope string) [][]string {
	var rows [][]string
	for _, k := range sortedKeys(s.Counters) {
		rows = append(rows, []string{scope, "counter", k,
			strconv.FormatInt(s.Counters[k], 10), "", "", "", ""})
	}
	return rows
}
